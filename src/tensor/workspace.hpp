// Per-thread workspace arena for kernel scratch memory (DESIGN.md §9).
//
// The packed GEMM packs A/B panels and Conv2d builds its padded phase
// planes and wide rows in short-lived float buffers on every call. Allocating those with
// std::vector made every layer forward/backward pay a heap round-trip;
// the arena instead grows to the high-water mark once and then serves every
// subsequent request by bumping a pointer into retained chunks.
//
// Usage is strictly scoped:
//
//   Workspace::Frame frame(Workspace::tls());
//   float* col = frame.alloc(rows * cols);   // 64-byte aligned, uninitialized
//   ... use col; more alloc() calls stack after it ...
//   // frame destructor rewinds the arena; the memory is reused by the next
//   // frame but stays owned by the arena (pointers never invalidate while
//   // any enclosing frame is alive).
//
// Frames nest: an inner frame (e.g. sgemm packing inside a Conv2d forward
// that already holds its phase planes) allocates past the outer frame's
// marks and rewinds without disturbing them. Chunks are never freed or
// reallocated while in use, so outstanding pointers remain valid even when
// a nested alloc() forces the arena to grow a fresh chunk.
//
// Thread affinity: tls() returns this thread's arena. Pool workers are
// long-lived (utils/threadpool.hpp), so per-lane buffers are allocated once
// per thread, not once per task. The arena is not thread-safe and must not
// be shared across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace fca {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena (created on first use, lives until thread
  /// exit).
  static Workspace& tls();

  /// Scoped allocation region; see file comment.
  class Frame {
   public:
    explicit Frame(Workspace& ws) : ws_(ws), mark_(ws.mark()) {}
    ~Frame() { ws_.rewind(mark_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    /// n floats, 64-byte aligned, uninitialized. n == 0 returns a valid
    /// (dereferenceable-for-zero-elements) pointer.
    float* alloc(int64_t n) { return ws_.alloc(n); }

    /// n row pointers (the B operand of sgemm_rows), uninitialized, from the
    /// same untyped storage as alloc().
    const float** alloc_rows(int64_t n) {
      static_assert(sizeof(const float*) % sizeof(float) == 0);
      constexpr int64_t kFloatsPerPtr = sizeof(const float*) / sizeof(float);
      return reinterpret_cast<const float**>(ws_.alloc(n * kFloatsPerPtr));
    }

   private:
    struct Mark {
      size_t chunk;
      size_t used;
    };
    friend class Workspace;

    Workspace& ws_;
    Mark mark_;
  };

  /// Total floats of capacity across all chunks (growth witness for tests:
  /// steady-state layers must not move this).
  size_t capacity_floats() const;
  /// Number of chunk allocations ever made by this arena.
  uint64_t chunks_created() const { return chunks_created_; }

 private:
  friend class Frame;

  struct AlignedDelete {
    void operator()(float* p) const;
  };
  struct Chunk {
    std::unique_ptr<float[], AlignedDelete> data;
    size_t cap = 0;   // floats
    size_t used = 0;  // floats, bump offset
  };

  Frame::Mark mark() const;
  void rewind(const Frame::Mark& m);
  float* alloc(int64_t n);

  std::vector<Chunk> chunks_;
  size_t cur_ = 0;  // chunk currently being bumped
  uint64_t chunks_created_ = 0;
};

}  // namespace fca
