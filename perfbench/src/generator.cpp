#include "generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>

#include "privim/common/rng.h"

namespace perfbench {

using privim::Result;
using privim::Status;
using privim::serve::net::HostPort;

std::vector<double> PoissonOffsets(double rate, double duration_s,
                                   uint64_t seed) {
  std::vector<double> offsets;
  if (!(rate > 0.0) || !(duration_s > 0.0)) return offsets;
  privim::Rng rng(seed);
  offsets.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  for (double t = rng.NextExponential(rate); t < duration_s;
       t += rng.NextExponential(rate)) {
    offsets.push_back(t);
  }
  return offsets;
}

size_t OpenLoopPacer::MarkSent(double now) {
  const size_t index = next_++;
  lateness_.push_back(std::max(0.0, now - offsets_[index]));
  return index;
}

std::string RenderRequest(Framing framing, const std::string& json_line) {
  if (framing == Framing::kJsonl) return json_line + "\n";
  return "POST /v1/query HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(json_line.size()) + "\r\n\r\n" + json_line;
}

namespace {

bool StartsWithNoCase(const std::string& text, size_t pos,
                      const char* prefix) {
  for (size_t i = 0; prefix[i] != '\0'; ++i) {
    if (pos + i >= text.size() ||
        std::tolower(static_cast<unsigned char>(text[pos + i])) !=
            std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

std::string StripNewline(std::string body) {
  if (!body.empty() && body.back() == '\n') body.pop_back();
  return body;
}

}  // namespace

bool ResponseReader::Next(std::string* body, int* status) {
  if (!error_.empty()) return false;
  if (framing_ == Framing::kJsonl) {
    const size_t end = buffer_.find('\n', pos_);
    if (end == std::string::npos) return false;
    body->assign(buffer_, pos_, end - pos_);
    *status = 200;
    pos_ = end + 1;
  } else {
    const size_t head_end = buffer_.find("\r\n\r\n", pos_);
    if (head_end == std::string::npos) return false;
    if (!StartsWithNoCase(buffer_, pos_, "HTTP/1.1 ") ||
        head_end < pos_ + 12) {
      error_ = "malformed HTTP status line";
      return false;
    }
    const int code = std::atoi(buffer_.c_str() + pos_ + 9);
    size_t length = std::string::npos;
    for (size_t line = buffer_.find("\r\n", pos_) + 2; line < head_end;
         line = buffer_.find("\r\n", line) + 2) {
      if (StartsWithNoCase(buffer_, line, "content-length:")) {
        length = static_cast<size_t>(
            std::strtoull(buffer_.c_str() + line + 15, nullptr, 10));
      }
    }
    if (length == std::string::npos) {
      error_ = "HTTP response without Content-Length";
      return false;
    }
    const size_t body_start = head_end + 4;
    if (buffer_.size() - body_start < length) return false;
    *body = StripNewline(buffer_.substr(body_start, length));
    *status = code;
    pos_ = body_start + length;
  }
  // Compact once the consumed prefix dominates the buffer.
  if (pos_ > 65536 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

uint64_t BodyDigest(const std::string& body) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : body) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

/// An fd closed on destruction.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

Result<std::unique_ptr<Fd>> Connect(const HostPort& address) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(address.port));
  const std::string host =
      address.host == "localhost" ? "127.0.0.1" : address.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address " + address.host);
  }
  auto fd = std::make_unique<Fd>(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd->get() < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
  if (::connect(fd->get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Status::IOError("connect " + address.ToString() + ": " +
                           strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd->get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Connection {
  std::unique_ptr<Fd> fd;
  std::string out;
  size_t out_pos = 0;
  ResponseReader reader;
  std::deque<size_t> outstanding;  ///< sample indexes, in send order
  explicit Connection(Framing framing) : reader(framing) {}
};

bool IsOk(const std::string& body, int status) {
  return status == 200 && body.find("\"ok\":true") != std::string::npos;
}

}  // namespace

Result<LoadResult> RunLoad(const LoadOptions& options,
                           const RequestFn& request, uint64_t first_index,
                           const Clock& clock) {
  if (options.connections < 1) {
    return Status::InvalidArgument("need at least one connection");
  }
  std::vector<Connection> conns;
  for (int i = 0; i < options.connections; ++i) {
    Result<std::unique_ptr<Fd>> fd = Connect(options.address);
    if (!fd.ok()) return fd.status();
    const int flags = ::fcntl(fd.value()->get(), F_GETFL, 0);
    ::fcntl(fd.value()->get(), F_SETFL, flags | O_NONBLOCK);
    conns.emplace_back(options.framing);
    conns.back().fd = std::move(fd).value();
  }

  const bool open_loop = options.rate > 0.0;
  OpenLoopPacer pacer(open_loop ? PoissonOffsets(options.rate,
                                                 options.duration_s,
                                                 options.seed)
                                : std::vector<double>());
  LoadResult result;
  int64_t inflight = 0;
  uint64_t next_index = first_index;
  size_t round_robin = 0;
  auto send = [&](Connection* conn, double scheduled) {
    Sample sample;
    sample.request = next_index++;
    sample.scheduled = scheduled;
    result.samples.push_back(sample);
    conn->out += RenderRequest(options.framing, request(sample.request));
    conn->outstanding.push_back(result.samples.size() - 1);
    result.inflight_max = std::max(result.inflight_max, ++inflight);
  };

  const double t0 = clock();
  result.started = t0;
  const double end = t0 + options.duration_s;
  if (!open_loop) {
    for (Connection& conn : conns) {
      for (int d = 0; d < options.depth; ++d) send(&conn, t0);
    }
  }

  std::vector<pollfd> fds(conns.size());
  char buffer[1 << 16];
  std::string body;
  for (;;) {
    double now = clock();
    while (open_loop && pacer.Due(now - t0)) {
      const double scheduled = t0 + pacer.NextDue();
      pacer.MarkSent(now - t0);
      send(&conns[round_robin++ % conns.size()], scheduled);
    }
    for (Connection& conn : conns) {
      while (conn.out_pos < conn.out.size()) {
        const ssize_t n = ::send(conn.fd->get(), conn.out.data() + conn.out_pos,
                                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_pos += static_cast<size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          return Status::IOError(std::string("send: ") + strerror(errno));
        }
      }
      if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
      }
    }

    const bool sending_done = open_loop ? pacer.done() : now >= end;
    if (sending_done && inflight == 0) break;
    if (sending_done && now > end + options.drain_timeout_s) break;

    // Never sleeps: the generator has a CPU of its own, and a thread that
    // sleeps must be woken, which on a virtual machine can take
    // milliseconds and would be charged to the requests it sends late.
    const timespec timeout{};
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd->get();
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      return Status::IOError(std::string("ppoll: ") + strerror(errno));
    }
    if (ready <= 0) continue;

    for (size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = conns[i];
      for (;;) {
        const ssize_t n = ::recv(conn.fd->get(), buffer, sizeof(buffer), 0);
        if (n > 0) {
          conn.reader.Feed(buffer, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        return Status::IOError(n == 0 ? "server closed the connection"
                                      : std::string("recv: ") +
                                            strerror(errno));
      }
      int status = 0;
      while (conn.reader.Next(&body, &status)) {
        if (conn.outstanding.empty()) {
          return Status::IOError("response without an outstanding request");
        }
        Sample& sample = result.samples[conn.outstanding.front()];
        conn.outstanding.pop_front();
        --inflight;
        now = clock();
        sample.done = now;
        sample.ok = IsOk(body, status);
        sample.digest = BodyDigest(body);
        if (!open_loop && now < end) send(&conn, now);
      }
      if (!conn.reader.error().empty()) {
        return Status::IOError("bad response stream: " +
                               conn.reader.error());
      }
    }
  }

  result.lateness_s = pacer.lateness();
  if (!open_loop) {
    const auto windows =
        static_cast<size_t>(options.duration_s / options.window_s);
    std::vector<double> ok(windows, 0.0);
    for (const Sample& sample : result.samples) {
      if (!sample.ok || sample.done < t0) continue;
      const auto w = static_cast<size_t>((sample.done - t0) / options.window_s);
      if (w < windows) ok[w] += 1.0;
    }
    for (const double count : ok) {
      result.window_ok_qps.push_back(count / options.window_s);
    }
  }
  return result;
}

Result<std::string> HttpGet(const HostPort& address,
                            const std::string& target) {
  Result<std::unique_ptr<Fd>> fd = Connect(address);
  if (!fd.ok()) return fd.status();
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: perfbench\r\n"
                              "Connection: close\r\n\r\n";
  if (::send(fd.value()->get(), request.data(), request.size(),
             MSG_NOSIGNAL) != static_cast<ssize_t>(request.size())) {
    return Status::IOError("short write of " + target);
  }
  ResponseReader reader(Framing::kHttp);
  char buffer[1 << 16];
  std::string body;
  int status = 0;
  while (!reader.Next(&body, &status)) {
    if (!reader.error().empty()) return Status::IOError(reader.error());
    const ssize_t n = ::recv(fd.value()->get(), buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError("no complete response to " + target);
    reader.Feed(buffer, static_cast<size_t>(n));
  }
  if (status != 200) {
    return Status::IOError("GET " + target + " answered " +
                           std::to_string(status));
  }
  return body;
}

}  // namespace perfbench
