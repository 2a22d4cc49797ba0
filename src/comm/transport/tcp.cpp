#include "comm/transport/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "comm/transport/error.hpp"
#include "comm/transport/framing.hpp"
#include "comm/transport/handshake.hpp"
#include "utils/bytes.hpp"
#include "utils/error.hpp"

namespace fca::comm {

namespace {

constexpr uint32_t kHelloMagic = 0x4643484Cu;    // "FCHL"
constexpr uint32_t kWelcomeMagic = 0x4643574Cu;  // "FCWL"
constexpr uint32_t kConnectMagic = 0x4643434Eu;  // "FCCN"
// v2: frames carry a format version + CRC32 (framing.hpp). The rendezvous
// version gate below rejects cross-version worlds up front.
constexpr uint32_t kProtocolVersion = 2;
constexpr size_t kHelloBytes = 16;    // magic + version + rank + port
constexpr size_t kGreetingBytes = 8;  // magic + rank
constexpr size_t kReadChunk = 64u << 10;
constexpr uint32_t kMaxFramePayload = 1u << 30;

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  FCA_CHECK_MSG(flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

void set_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Splits "host:port"; an empty host means every interface.
std::pair<std::string, int> parse_host_port(const std::string& address) {
  const size_t colon = address.rfind(':');
  FCA_CHECK_MSG(colon != std::string::npos,
                "tcp address '" << address << "' is not host:port");
  const std::string host = address.substr(0, colon);
  int port = 0;
  try {
    port = std::stoi(address.substr(colon + 1));
  } catch (const std::exception&) {
    throw Error("tcp address '" + address + "' has a non-numeric port");
  }
  FCA_CHECK_MSG(port >= 0 && port <= 65535,
                "tcp port " << port << " outside [0, 65535]");
  return {host, port};
}

sockaddr_in resolve(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    return addr;
  }
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const int rc = getaddrinfo(host.c_str(), nullptr, &hints, &result);
  FCA_CHECK_MSG(rc == 0 && result != nullptr,
                "cannot resolve tcp host '" << host
                                            << "': " << gai_strerror(rc));
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  freeaddrinfo(result);
  return addr;
}

int make_listener(const std::string& host, int port, int* actual_port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  FCA_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = resolve(host, port);
  FCA_CHECK_MSG(bind(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0,
                "bind(" << (host.empty() ? "*" : host) << ":" << port
                        << ") failed: " << std::strerror(errno));
  FCA_CHECK_MSG(listen(fd, SOMAXCONN) == 0,
                "listen failed: " << std::strerror(errno));
  socklen_t len = sizeof(addr);
  FCA_CHECK(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  *actual_port = ntohs(addr.sin_port);
  set_nonblocking(fd);
  return fd;
}

[[noreturn]] void throw_typed(TransportErrc code, int peer,
                              const std::string& what) {
  throw TransportError(code, peer, what);
}

/// Blocking-with-deadline exact read for the rendezvous control phase.
void read_exact(int fd, std::byte* out, size_t n, double deadline,
                const char* what) {
  size_t got = 0;
  while (got < n) {
    const ssize_t rc = read(fd, out + got, n - got);
    if (rc > 0) {
      got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      throw_typed(TransportErrc::kPeerReset, TransportError::kNoPeer,
                  std::string("peer closed during ") + what);
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      throw_typed(TransportErrc::kPeerReset, TransportError::kNoPeer,
                  std::string(what) + " read failed: " +
                      std::strerror(errno));
    }
    if (monotonic_seconds() >= deadline) {
      throw_typed(TransportErrc::kTimeout, TransportError::kNoPeer,
                  std::string("timed out during ") + what);
    }
    pollfd p{fd, POLLIN, 0};
    poll(&p, 1, 50);
  }
}

void write_all(int fd, const std::byte* data, size_t n, double deadline,
               const char* what) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0 ||
        (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      throw_typed(TransportErrc::kPeerReset, TransportError::kNoPeer,
                  std::string(what) + " write failed: " +
                      std::strerror(errno));
    }
    if (monotonic_seconds() >= deadline) {
      throw_typed(TransportErrc::kTimeout, TransportError::kNoPeer,
                  std::string("timed out during ") + what);
    }
    pollfd p{fd, POLLOUT, 0};
    poll(&p, 1, 50);
  }
}

/// One non-blocking connect attempt; returns the connected fd or -1 with
/// `*err` holding the (retryable or not) errno.
int try_connect_once(const sockaddr_in& addr, int* err) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  FCA_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    set_nonblocking(fd);
    set_nodelay(fd);
    *err = 0;
    return fd;
  }
  *err = errno;
  close(fd);
  return -1;
}

void sleep_seconds(double s) {
  if (s <= 0.0) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(s);
  ts.tv_nsec = static_cast<long>((s - static_cast<double>(ts.tv_sec)) * 1e9);
  nanosleep(&ts, nullptr);
}

std::string peer_host_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  FCA_CHECK(getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
  return buf;
}

}  // namespace

int TcpTransport::dial(const std::string& host, int port, double deadline,
                       const char* what, uint64_t op_index) {
  const sockaddr_in addr = resolve(host, port);
  RetrySchedule schedule(retry_, std::string("tcp.dial/") + what, op_index);
  int err = 0;
  while (true) {
    const int fd = try_connect_once(addr, &err);
    if (fd >= 0) return fd;
    if (err != ECONNREFUSED && err != ETIMEDOUT && err != EINTR &&
        err != EAGAIN) {
      std::ostringstream os;
      os << what << ": connect(" << host << ":" << port
         << ") failed: " << std::strerror(err);
      throw_typed(TransportErrc::kPeerUnreachable, TransportError::kNoPeer,
                  os.str());
    }
    const std::optional<double> backoff = schedule.next_backoff_s();
    if (!backoff.has_value()) {
      std::ostringstream os;
      os << what << ": " << host << ":" << port << " refused "
         << schedule.attempts() << " dial attempt(s) ("
         << std::strerror(err) << ")";
      throw_typed(TransportErrc::kPeerUnreachable, TransportError::kNoPeer,
                  os.str());
    }
    if (monotonic_seconds() + *backoff >= deadline) {
      std::ostringstream os;
      os << what << ": no listener at " << host << ":" << port
         << " within the io timeout (" << schedule.attempts()
         << " dial attempt(s))";
      throw_typed(TransportErrc::kTimeout, TransportError::kNoPeer,
                  os.str());
    }
    note_retry();
    sleep_seconds(*backoff);
  }
}

TcpTransport::TcpTransport(const TransportOptions& options, int world,
                           Handshake* handshake)
    : Transport(world, options.self_rank),
      io_timeout_s_(options.io_timeout_s),
      retry_(options.retry) {
  retry_.validate();
  if (self_rank_ == TransportOptions::kAllRanks) {
    setup_all_local();
    return;
  }
  if (self_rank_ == 0) {
    FCA_CHECK_MSG(!options.bind_address.empty(),
                  "tcp rank 0 needs --bind host:port for the rendezvous");
    setup_root(options, handshake);
  } else {
    FCA_CHECK_MSG(!options.connect_address.empty(),
                  "tcp rank " << self_rank_
                              << " needs --connect host:port of rank 0");
    setup_peer(options, handshake);
  }
}

TcpTransport::~TcpTransport() {
  flush_outbufs_before_close();
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
}

void TcpTransport::flush_outbufs_before_close() {
  // Best-effort: a remote peer may still be waiting on our last frames.
  const double grace = self_rank_ == TransportOptions::kAllRanks ? 0.0 : 2.0;
  const double deadline = monotonic_seconds() + grace;
  bool dirty = true;
  while (dirty) {
    dirty = false;
    try {
      pump_once();
    } catch (const Error&) {
      return;  // peer already gone; nothing left to flush to
    }
    for (const Conn& c : conns_) {
      if (!c.closed && c.outpos < c.outbuf.size()) dirty = true;
    }
    if (dirty && monotonic_seconds() >= deadline) return;
  }
}

void TcpTransport::setup_all_local() {
  listen_fd_ = make_listener("127.0.0.1", 0, &listen_port_);
}

TcpTransport::Conn& TcpTransport::register_conn(int fd) {
  set_nodelay(fd);
  conns_.push_back(Conn{});
  conns_.back().fd = fd;
  return conns_.back();
}

void TcpTransport::setup_root(const TransportOptions& options,
                              Handshake* handshake) {
  const auto [host, port] = parse_host_port(options.bind_address);
  listen_fd_ = make_listener(host, port, &listen_port_);
  const double deadline = monotonic_seconds() + io_timeout_s_;
  peer_addrs_.assign(static_cast<size_t>(world_), {"", 0});
  peer_addrs_[0] = {host.empty() ? "0.0.0.0" : host, listen_port_};

  int joined = 0;
  while (joined < world_ - 1) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      FCA_CHECK_MSG(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR,
                    "rendezvous accept failed: " << std::strerror(errno));
      if (monotonic_seconds() >= deadline) {
        std::ostringstream os;
        os << "rendezvous timed out: " << joined << " of " << world_ - 1
           << " peer(s) joined within " << io_timeout_s_ << "s";
        throw_typed(TransportErrc::kTimeout, TransportError::kNoPeer,
                    os.str());
      }
      pollfd p{listen_fd_, POLLIN, 0};
      poll(&p, 1, 50);
      continue;
    }
    set_nonblocking(fd);
    std::byte hello[kHelloBytes];
    read_exact(fd, hello, sizeof(hello), deadline, "rendezvous HELLO");
    utils::ByteReader r(hello);
    if (r.u32() != kHelloMagic) {
      throw_typed(TransportErrc::kHandshakeRejected, TransportError::kNoPeer,
                  "rendezvous peer sent a non-HELLO greeting (foreign "
                  "client or corrupted stream)");
    }
    const uint32_t peer_version = r.u32();
    if (peer_version != kProtocolVersion) {
      std::ostringstream os;
      os << "rendezvous peer speaks protocol version " << peer_version
         << ", this build speaks " << kProtocolVersion
         << " — run the same build on every rank";
      throw_typed(TransportErrc::kHandshakeRejected, TransportError::kNoPeer,
                  os.str());
    }
    const int rank = r.i32();
    const int p2p_port = r.i32();
    if (rank < 1 || rank >= world_) {
      std::ostringstream os;
      os << "rendezvous peer claims rank " << rank << " outside [1, "
         << world_ << ")";
      throw_typed(TransportErrc::kHandshakeRejected, TransportError::kNoPeer,
                  os.str());
    }
    if (peer_addrs_[static_cast<size_t>(rank)].second != 0) {
      std::ostringstream os;
      os << "two rendezvous peers claim rank " << rank;
      throw_typed(TransportErrc::kHandshakeRejected, TransportError::kNoPeer,
                  os.str());
    }
    peer_addrs_[static_cast<size_t>(rank)] = {peer_host_of(fd), p2p_port};
    edge_conn_[{0, rank}] = conns_.size();
    edge_conn_[{rank, 0}] = conns_.size();
    register_conn(fd).peer = rank;
    ++joined;
  }

  // Everyone joined: publish rank, world, run context and the address table.
  const Bytes blob =
      handshake != nullptr ? handshake->serialize() : Handshake{}.serialize();
  for (const auto& [edge, index] : edge_conn_) {
    if (edge.first != 0) continue;
    utils::ByteWriter w;
    w.u32(kWelcomeMagic);
    w.u32(kProtocolVersion);
    w.u32(static_cast<uint32_t>(edge.second));
    w.u32(static_cast<uint32_t>(world_));
    w.bytes(blob);
    for (const auto& [peer_host, peer_port] : peer_addrs_) {
      w.str(peer_host);
      w.u32(static_cast<uint32_t>(peer_port));
    }
    utils::ByteWriter framed;
    framed.bytes(w.buffer());
    write_all(conns_[index].fd, framed.buffer().data(),
              framed.buffer().size(), deadline, "rendezvous WELCOME");
  }
}

void TcpTransport::setup_peer(const TransportOptions& options,
                              Handshake* handshake) {
  const double deadline = monotonic_seconds() + io_timeout_s_;
  // Listener other (lower-ranked, non-root) peers dial for direct streams.
  listen_fd_ = make_listener("", 0, &listen_port_);

  const auto [root_host, root_port] = parse_host_port(options.connect_address);
  const int fd = dial(root_host, root_port, deadline, "rendezvous",
                      static_cast<uint64_t>(self_rank_));
  utils::ByteWriter hello;
  hello.u32(kHelloMagic);
  hello.u32(kProtocolVersion);
  hello.i32(self_rank_);
  hello.i32(listen_port_);
  write_all(fd, hello.buffer().data(), kHelloBytes, deadline,
            "rendezvous HELLO");

  std::byte lenbuf[4];
  read_exact(fd, lenbuf, 4, deadline, "rendezvous WELCOME");
  const uint32_t body_len = utils::ByteReader(lenbuf).u32();
  if (body_len < 16 || body_len > (1u << 20)) {
    std::ostringstream os;
    os << "rendezvous WELCOME has implausible length " << body_len;
    throw_typed(TransportErrc::kHandshakeRejected, TransportError::kNoPeer,
                os.str());
  }
  Bytes body(body_len);
  read_exact(fd, body.data(), body_len, deadline, "rendezvous WELCOME");
  utils::ByteReader r(body);
  if (r.u32() != kWelcomeMagic) {
    throw_typed(TransportErrc::kHandshakeRejected, TransportError::kNoPeer,
                "expected a WELCOME from rank 0 (is --connect pointing at "
                "the rendezvous listener?)");
  }
  const uint32_t root_version = r.u32();
  if (root_version != kProtocolVersion) {
    std::ostringstream os;
    os << "rendezvous root speaks protocol version " << root_version
       << ", this build speaks " << kProtocolVersion
       << " — run the same build on every rank";
    throw_typed(TransportErrc::kHandshakeRejected, TransportError::kNoPeer,
                os.str());
  }
  const int rank = r.i32();
  if (rank != self_rank_) {
    std::ostringstream os;
    os << "root assigned rank " << rank << ", we are configured as "
       << self_rank_;
    throw_typed(TransportErrc::kHandshakeRejected, TransportError::kNoPeer,
                os.str());
  }
  const int world = r.i32();
  if (world != world_) {
    std::ostringstream os;
    os << "root runs a world of " << world << ", we expect " << world_;
    throw_typed(TransportErrc::kHandshakeRejected, TransportError::kNoPeer,
                os.str());
  }
  const std::span<const std::byte> blob = r.bytes();
  if (handshake != nullptr) *handshake = Handshake::parse(blob);
  peer_addrs_.assign(static_cast<size_t>(world_), {"", 0});
  for (int i = 0; i < world_; ++i) {
    std::string host(r.str());
    const int port = r.i32();
    peer_addrs_[static_cast<size_t>(i)] = {std::move(host), port};
  }
  // Rank 0 as seen from here is whatever --connect pointed at.
  peer_addrs_[0] = {root_host, root_port};

  edge_conn_[{self_rank_, 0}] = conns_.size();
  edge_conn_[{0, self_rank_}] = conns_.size();
  register_conn(fd).peer = 0;
}

void TcpTransport::ensure_local_edge(int a, int b) {
  if (edge_conn_.count({a, b}) != 0) return;
  const double deadline = monotonic_seconds() + io_timeout_s_;
  const uint64_t edge_index = static_cast<uint64_t>(a) *
                                  static_cast<uint64_t>(world_) +
                              static_cast<uint64_t>(b);
  const int out =
      dial("127.0.0.1", listen_port_, deadline, "local edge", edge_index);
  int in = -1;
  while (in < 0) {
    in = accept(listen_fd_, nullptr, nullptr);
    if (in < 0) {
      FCA_CHECK_MSG(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR,
                    "local edge accept failed: " << std::strerror(errno));
      FCA_CHECK_MSG(monotonic_seconds() < deadline,
                    "local edge accept timed out");
      pollfd p{listen_fd_, POLLIN, 0};
      poll(&p, 1, 10);
    }
  }
  set_nonblocking(in);
  // Frames from a land on b's end of the pair and vice versa; the frame
  // header carries (src, dst, tag), so readers never care which rank a
  // stream "belongs" to.
  edge_conn_[{a, b}] = conns_.size();
  register_conn(out);
  edge_conn_[{b, a}] = conns_.size();
  register_conn(in);
}

void TcpTransport::ensure_peer_stream(int peer) {
  if (edge_conn_.count({self_rank_, peer}) != 0) return;
  const double deadline = monotonic_seconds() + io_timeout_s_;
  if (self_rank_ < peer) {
    const auto& [host, port] = peer_addrs_.at(static_cast<size_t>(peer));
    FCA_CHECK_MSG(port != 0, "no advertised address for rank " << peer);
    int fd = -1;
    try {
      fd = dial(host, port, deadline, "peer stream",
                static_cast<uint64_t>(peer));
    } catch (const TransportError& e) {
      // Attribute the failure to the rank we were dialing.
      throw TransportError(e, peer);
    }
    utils::ByteWriter greeting;
    greeting.u32(kConnectMagic);
    greeting.i32(self_rank_);
    write_all(fd, greeting.buffer().data(), kGreetingBytes, deadline,
              "peer CONNECT");
    edge_conn_[{self_rank_, peer}] = conns_.size();
    edge_conn_[{peer, self_rank_}] = conns_.size();
    register_conn(fd).peer = peer;
    return;
  }
  // The lower rank dials; we wait for its CONNECT greeting to arrive.
  while (edge_conn_.count({self_rank_, peer}) == 0) {
    if (monotonic_seconds() >= deadline) {
      std::ostringstream os;
      os << "rank " << peer << " never opened a stream to rank "
         << self_rank_;
      throw_typed(TransportErrc::kPeerUnreachable, peer, os.str());
    }
    pump(0.05);
  }
}

size_t TcpTransport::conn_for_edge(int src, int dst) {
  auto it = edge_conn_.find({src, dst});
  if (it == edge_conn_.end()) {
    if (self_rank_ == TransportOptions::kAllRanks) {
      ensure_local_edge(std::min(src, dst), std::max(src, dst));
    } else {
      FCA_CHECK_MSG(src == self_rank_,
                    "rank " << self_rank_ << " cannot send as rank " << src);
      ensure_peer_stream(dst);
    }
    it = edge_conn_.find({src, dst});
    FCA_CHECK(it != edge_conn_.end());
  }
  return it->second;
}

void TcpTransport::parse_frames(Conn& conn) {
  while (true) {
    const size_t avail = conn.inbuf.size() - conn.inpos;
    if (conn.awaiting_greeting) {
      if (avail < kGreetingBytes) break;
      utils::ByteReader r(std::span<const std::byte>(
          conn.inbuf.data() + conn.inpos, kGreetingBytes));
      FCA_CHECK_MSG(r.u32() == kConnectMagic,
                    "accepted stream did not start with CONNECT");
      const int peer = r.i32();
      FCA_CHECK_MSG(peer >= 0 && peer < world_ && peer != self_rank_,
                    "CONNECT greeting claims invalid rank " << peer);
      conn.inpos += kGreetingBytes;
      conn.awaiting_greeting = false;
      const size_t index = static_cast<size_t>(&conn - conns_.data());
      edge_conn_[{self_rank_, peer}] = index;
      edge_conn_[{peer, self_rank_}] = index;
      continue;
    }
    if (avail < framing::kHeaderBytes) break;
    const std::byte* raw = conn.inbuf.data() + conn.inpos;
    framing::FrameHeader h;
    try {
      h = framing::decode_header(raw);
      if (h.payload_len > kMaxFramePayload) {
        std::ostringstream os;
        os << "frame claims " << h.payload_len << " payload bytes";
        framing::fail_corrupt(os.str());
      }
      if (avail < framing::frame_size(h.payload_len)) break;
      framing::verify_frame(
          h, raw,
          std::span<const std::byte>(raw + framing::kHeaderBytes,
                                     h.payload_len));
    } catch (const TransportError& e) {
      // A corrupt frame desynchronizes the byte stream: nothing after it can
      // be trusted, so the whole connection is condemned.
      conn.closed = true;
      if (conn.peer != Conn::kNoPeer) throw TransportError(e, conn.peer);
      throw;
    }
    WireMessage msg;
    msg.src = h.src;
    msg.dst = h.dst;
    msg.tag = h.tag;
    msg.transfer_s = h.transfer_s;
    const std::byte* payload = raw + framing::kHeaderBytes;
    msg.payload.assign(payload, payload + h.payload_len);
    conn.inpos += framing::frame_size(h.payload_len);
    queues_.push(std::move(msg));
  }
  if (conn.inpos == conn.inbuf.size()) {
    conn.inbuf.clear();
    conn.inpos = 0;
  } else if (conn.inpos > (256u << 10)) {
    conn.inbuf.erase(conn.inbuf.begin(),
                     conn.inbuf.begin() + static_cast<ptrdiff_t>(conn.inpos));
    conn.inpos = 0;
  }
}

bool TcpTransport::pump_once() {
  bool progress = false;
  // Accept peer dials (multi-process mode; the all-local listener is only
  // drained synchronously inside ensure_local_edge).
  if (listen_fd_ >= 0 && self_rank_ != TransportOptions::kAllRanks) {
    while (true) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      set_nonblocking(fd);
      Conn& conn = register_conn(fd);
      conn.awaiting_greeting = true;
      progress = true;
    }
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    if (conn.closed) continue;
    while (conn.outpos < conn.outbuf.size()) {
      const ssize_t rc =
          ::send(conn.fd, conn.outbuf.data() + conn.outpos,
                 conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
      if (rc > 0) {
        conn.outpos += static_cast<size_t>(rc);
        progress = true;
        continue;
      }
      if (rc < 0 &&
          (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        break;
      }
      conn.closed = true;
      throw_stream_dead(conn, Conn::kNoPeer,
                        std::string("tcp send failed: ") +
                            std::strerror(errno));
    }
    if (conn.outpos == conn.outbuf.size() && !conn.outbuf.empty()) {
      conn.outbuf.clear();
      conn.outpos = 0;
    }
    while (true) {
      const size_t old = conn.inbuf.size();
      conn.inbuf.resize(old + kReadChunk);
      const ssize_t rc = read(conn.fd, conn.inbuf.data() + old, kReadChunk);
      if (rc > 0) {
        conn.inbuf.resize(old + static_cast<size_t>(rc));
        progress = true;
        parse_frames(conn);
        continue;
      }
      conn.inbuf.resize(old);
      if (rc == 0) {
        conn.closed = true;
        // A clean close with a partial frame buffered means the peer died
        // mid-write (e.g. SIGKILL between write() calls): the leftover bytes
        // can never complete, and silently dropping them would hide the
        // death from the round driver.
        if (conn.inbuf.size() - conn.inpos > 0) {
          std::ostringstream os;
          os << "peer closed its stream mid-frame ("
             << conn.inbuf.size() - conn.inpos << " orphaned byte(s))";
          throw_stream_dead(conn, Conn::kNoPeer, os.str());
        }
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      conn.closed = true;
      throw_stream_dead(conn, Conn::kNoPeer,
                        std::string("tcp read failed: ") +
                            std::strerror(errno));
    }
  }
  return progress;
}

void TcpTransport::pump(double wait_s) {
  const double deadline = monotonic_seconds() + wait_s;
  while (true) {
    while (pump_once()) {
    }
    if (wait_s <= 0.0 || monotonic_seconds() >= deadline) return;
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 1);
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (const Conn& c : conns_) {
      if (c.closed) continue;
      short events = POLLIN;
      if (c.outpos < c.outbuf.size()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }
    const double remaining = deadline - monotonic_seconds();
    poll(fds.data(), fds.size(),
         std::max(1, static_cast<int>(std::min(remaining * 1e3, 50.0))));
    if (!pump_once()) return;  // polled quiescent: nothing new arrived
  }
}

void TcpTransport::send(const WireView& msg) {
  check_rank_pair(msg.dst, msg.src);
  const size_t index = conn_for_edge(msg.src, msg.dst);
  Conn& conn = conns_[index];
  if (conn.closed) {
    std::ostringstream os;
    os << "tcp stream (" << msg.src << " -> " << msg.dst << ") is closed";
    throw_stream_dead(conn, msg.dst, os.str());
  }
  framing::append_frame(conn.outbuf, msg.src, msg.dst, msg.tag,
                        msg.transfer_s, msg.payload);
  note_sent_frame(msg.payload.size());
  pump_once();  // opportunistic flush keeps socket buffers from backing up
}

std::optional<WireMessage> TcpTransport::try_recv(int dst, int src, int tag) {
  check_rank_pair(dst, src);
  if (!queues_.has(dst, src, tag)) pump(0.0);
  std::optional<WireMessage> msg = queues_.pop(dst, src, tag);
  if (msg.has_value()) note_consumed_frame();
  return msg;
}

std::optional<WireMessage> TcpTransport::wait_recv(int dst, int src,
                                                   int tag) {
  std::optional<WireMessage> msg = try_recv(dst, src, tag);
  if (msg.has_value() || self_rank_ == TransportOptions::kAllRanks) {
    return msg;
  }
  const double deadline = monotonic_seconds() + io_timeout_s_;
  while (!msg.has_value() && monotonic_seconds() < deadline) {
    pump(0.05);
    msg = queues_.pop(dst, src, tag);
    if (msg.has_value()) note_consumed_frame();
  }
  return msg;
}

bool TcpTransport::has_message(int dst, int src, int tag) {
  check_rank_pair(dst, src);
  if (!queues_.has(dst, src, tag)) pump(0.0);
  return queues_.has(dst, src, tag);
}

void TcpTransport::clear_pending() {
  pump(0.0);
  queues_.clear();
  reset_pending_counters();
}

std::string TcpTransport::describe_pending(int dst, int src) {
  pump(0.0);
  return queues_.describe(dst, src);
}

void TcpTransport::throw_stream_dead(const Conn& conn, int fallback_peer,
                                     const std::string& what) const {
  const int peer = conn.peer != Conn::kNoPeer ? conn.peer : fallback_peer;
  throw TransportError(TransportErrc::kPeerReset, peer, what);
}

void TcpTransport::discard_peer(int rank) {
  // Forget the condemned rank's streams: a half-open socket must not feed
  // later rounds, and in the all-local world a loopback stream pair carries
  // exactly one edge, so closing both directions is safe.
  for (auto it = edge_conn_.begin(); it != edge_conn_.end();) {
    if (it->first.first == rank || it->first.second == rank) {
      Conn& conn = conns_[it->second];
      if (!conn.closed) {
        conn.closed = true;
        if (conn.fd >= 0) {
          close(conn.fd);
          conn.fd = -1;
        }
      }
      it = edge_conn_.erase(it);
    } else {
      ++it;
    }
  }
  note_consumed_frames(queues_.erase_rank(rank));
}

}  // namespace fca::comm
