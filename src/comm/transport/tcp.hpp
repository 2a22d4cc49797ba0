// TCP socket backend: length-prefixed frames over non-blocking sockets, so
// a run can span processes and machines MPI-style.
//
// Topology: a full-duplex stream per rank pair, established lazily. In the
// all-local mode (self_rank == kAllRanks) every rank lives in this process
// and pairs are wired through a loopback listener; in the multi-process mode
// streams come out of the rendezvous protocol (DESIGN.md §11):
//
//   1. Rank 0 listens on --bind host:port. Every other rank dials it (with
//      retries) and sends HELLO {magic, version, rank, p2p listen port}.
//   2. Once all world-1 peers joined, rank 0 answers each with WELCOME
//      {magic, version, echoed rank, world size, handshake blob (seed +
//      FaultConfig + FaultStats — transport/handshake.hpp), address table}.
//   3. The HELLO connection stays open as the rank-0 <-> rank-k data stream
//      (the star topology federated rounds actually use). A non-root pair
//      (j, k) connects on first use: the lower rank dials the higher rank's
//      advertised listener and greets with CONNECT {magic, rank}.
//
// All sockets are non-blocking with TCP_NODELAY; progress is made by pump():
// flush pending writes, read whatever arrived, demultiplex complete frames
// into per-(src, dst, tag) queues. Blocking receives poll up to io_timeout_s
// when the sender is a remote process and never block in all-local worlds
// (where a missing message is a protocol bug, exactly like inproc).
#pragma once

#include "comm/transport/transport.hpp"

namespace fca::comm {

struct Handshake;

class TcpTransport : public Transport {
 public:
  TcpTransport(const TransportOptions& options, int world,
               Handshake* handshake);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  std::string_view name() const override { return "tcp"; }

  void send(const WireView& msg) override;
  std::optional<WireMessage> try_recv(int dst, int src, int tag) override;
  std::optional<WireMessage> wait_recv(int dst, int src, int tag) override;
  bool has_message(int dst, int src, int tag) override;
  void clear_pending() override;
  void discard_peer(int rank) override;
  std::string describe_pending(int dst, int src) override;

 private:
  struct Conn {
    int fd = -1;
    bool closed = false;
    /// Fabric rank on the far side, once known (multi-process mode);
    /// kNoPeer for all-local loopback streams, which carry any edge.
    static constexpr int kNoPeer = -1;
    int peer = kNoPeer;
    /// Multi-process accepted connection whose CONNECT greeting (peer rank)
    /// has not arrived yet.
    bool awaiting_greeting = false;
    Bytes inbuf;
    size_t inpos = 0;
    Bytes outbuf;
    size_t outpos = 0;
  };

  // -- setup -----------------------------------------------------------------
  void setup_all_local();
  void setup_root(const TransportOptions& options, Handshake* handshake);
  void setup_peer(const TransportOptions& options, Handshake* handshake);
  /// All-local: wires the loopback stream pair for edge {a, b}.
  void ensure_local_edge(int a, int b);
  /// Dials host:port under the deterministic retry policy (refusals back
  /// off and retry — the peer may not have bound its listener yet) and the
  /// wall-clock deadline. Throws TransportError{kPeerUnreachable} when the
  /// retry budget is exhausted, {kTimeout} when the deadline passes first.
  int dial(const std::string& host, int port, double deadline,
           const char* what, uint64_t op_index);
  /// Multi-process: stream to `peer` (dial if lower rank, else wait for its
  /// CONNECT greeting).
  void ensure_peer_stream(int peer);

  // -- progress --------------------------------------------------------------
  /// One non-blocking flush/read/accept pass; true when anything moved.
  bool pump_once();
  /// Repeats pump_once until quiescent, then optionally polls up to
  /// `wait_s` for more traffic before the next pass.
  void pump(double wait_s);
  void parse_frames(Conn& conn);
  void flush_outbufs_before_close();

  size_t conn_for_edge(int src, int dst);
  Conn& register_conn(int fd);
  /// Throws TransportError{kPeerReset} attributing a dead stream to its
  /// peer rank (or to `fallback_peer` for all-local streams).
  [[noreturn]] void throw_stream_dead(const Conn& conn, int fallback_peer,
                                      const std::string& what) const;

  double io_timeout_s_ = 30.0;
  RetryPolicy retry_;
  int listen_fd_ = -1;       // loopback (all-local) or p2p/rendezvous listener
  int listen_port_ = 0;
  std::vector<Conn> conns_;
  /// (src, dst) -> index into conns_ of the stream carrying that direction.
  std::map<std::pair<int, int>, size_t> edge_conn_;
  std::vector<std::pair<std::string, int>> peer_addrs_;  // rank -> host, port
  MailboxSet queues_;
};

}  // namespace fca::comm
