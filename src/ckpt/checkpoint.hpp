// Checkpoint & fault-tolerant resume for federated simulations.
//
// A checkpoint captures the complete simulation state at a round boundary —
// every client's model weights (including BatchNorm buffers), optimizer
// slots and RNG stream, the strategy's server-side state (global classifier,
// prototypes, knowledge coefficients), the sampler RNG, per-rank traffic
// accounting, and the metrics recorded so far. Restoring it and continuing
// reproduces an uninterrupted run bit for bit: same per-round accuracies,
// same traffic counters.
//
// CheckpointManager plugs into FederatedRun as a RoundHook: it saves every
// `every` rounds (atomically, CRC-protected; see ckpt/format.hpp), retains
// the newest `keep_last` files, and — when a round throws mid-flight — the
// driver calls recover(), which rolls the whole simulation back to the
// newest loadable checkpoint so the round is replayed instead of the run
// aborting. A corrupted newest file is skipped in favor of the previous
// retained one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fl/server.hpp"

namespace fca::ckpt {

struct Options {
  std::string dir;    // checkpoint directory (created on demand)
  int every = 1;      // save after every N-th round
  int keep_last = 2;  // newest checkpoints retained; older ones are deleted
};

/// Save/load accounting, surfaced by the benches to track checkpoint
/// overhead (wall time and on-disk footprint) across PRs.
struct Stats {
  int saves = 0;
  double save_seconds = 0.0;       // total across saves
  uint64_t bytes_written = 0;      // total across saves
  uint64_t last_file_bytes = 0;    // size of the newest checkpoint
  int loads = 0;
  double load_seconds = 0.0;       // total across loads
};

class CheckpointManager : public fl::RoundHook {
 public:
  explicit CheckpointManager(Options options);

  // -- RoundHook -------------------------------------------------------------
  /// Saves a checkpoint when the round hits the `every` interval, then
  /// applies the keep-last retention policy.
  void after_round(fl::FederatedRun& run, fl::RoundStrategy& strategy,
                   const fl::ResumeState& cursor) override;
  /// Crash recovery: rolls the full simulation back to the newest loadable
  /// checkpoint (clearing in-flight messages first) and returns the cursor
  /// to replay from; std::nullopt when no checkpoint is loadable. Anything
  /// other than an fca::Error (a bad_alloc, a logic error) propagates.
  std::optional<fl::ResumeState> recover(fl::FederatedRun& run,
                                         fl::RoundStrategy& strategy) override;

  // -- explicit save/restore -------------------------------------------------
  /// Unconditionally writes the checkpoint for `cursor` (round
  /// cursor.next_round - 1) and applies retention.
  void save(fl::FederatedRun& run, fl::RoundStrategy& strategy,
            const fl::ResumeState& cursor);

  /// Restores the newest loadable checkpoint into `run` and `strategy`
  /// (clients, optimizer slots, RNG streams, strategy state, traffic
  /// accounting) and returns the cursor to continue from. Files failing CRC
  /// or structural validation (an fca::Error) are logged and skipped in favor
  /// of the next older retained checkpoint; throws fca::Error when none is
  /// loadable. Any other exception propagates at once: a bad_alloc or a logic
  /// error is a fault of the program, not of the file.
  fl::ResumeState resume(fl::FederatedRun& run, fl::RoundStrategy& strategy);

  /// Rounds that have a checkpoint file in `dir`, ascending. Static so
  /// callers can probe for resumability without constructing a manager.
  static std::vector<int> available_rounds(const std::string& dir);

  /// Path of the checkpoint file for a round under `dir`.
  static std::string checkpoint_path(const std::string& dir, int round);

  const Options& options() const { return options_; }
  const Stats& stats() const { return stats_; }

 private:
  Options options_;
  Stats stats_;
};

}  // namespace fca::ckpt
