// Checkpoint subsystem tests: container format integrity (CRC, atomic
// writes, corruption rejection), retention, and the headline guarantee —
// a run checkpointed at round N and resumed is bit-identical to an
// uninterrupted run, even when the newest checkpoint file is corrupted and
// resume must fall back to an older one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>

#include "ckpt/checkpoint.hpp"
#include "ckpt/format.hpp"
#include "core/fedclassavg.hpp"
#include "fl_fixtures.hpp"
#include "models/serialize.hpp"
#include "utils/atomic_io.hpp"
#include "utils/bytes.hpp"
#include "utils/crc32.hpp"
#include "utils/error.hpp"

namespace fca {
namespace {

using test::expect_bit_identical;
using test::tiny_experiment_config;

/// Fresh scratch directory per test.
std::string scratch_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "fca_ckpt_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::byte> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void flip_byte(const std::string& path, size_t offset) {
  std::vector<std::byte> bytes = read_file(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= std::byte{0x40};
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Atomic writes & CRC32

TEST(AtomicIo, WritesAndReplacesWithoutTempResidue) {
  const std::string dir = scratch_dir("atomic");
  const std::string path = dir + "/out.bin";
  atomic_write_file(path, std::string_view("first"));
  atomic_write_file(path, std::string_view("second contents"));
  const std::vector<std::byte> bytes = read_file(path);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()),
            "second contents");
  // No temp file left behind.
  size_t entries = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicIo, MissingParentDirectoryThrows) {
  EXPECT_THROW(
      atomic_write_file("/nonexistent-dir-xyz/file.bin", std::string_view("x")),
      Error);
}

TEST(CkptFormat, Crc32MatchesKnownVector) {
  // The standard IEEE CRC32 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(fca::crc32(std::span<const std::byte>(
                reinterpret_cast<const std::byte*>(s), 9)),
            0xCBF43926u);
  EXPECT_EQ(fca::crc32({}), 0u);
}

TEST(CkptFormat, Crc32AcceleratedPathMatchesPortable) {
  // crc32_update may dispatch to a PCLMULQDQ folding kernel on x86-64; it
  // must be bit-identical to the portable slice-by-8 path for every
  // length (exhaustively through several fold strides), alignment, and
  // running-state value. On machines without carry-less multiply both
  // calls take the same path and the test is a tautology.
  std::vector<std::byte> buf(4096 + 7);
  uint32_t x = 0x12345678u;
  for (std::byte& b : buf) {  // xorshift32 keeps the data seed-stable
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::byte>(x & 0xFFu);
  }
  for (size_t len : {size_t{0},  size_t{1},   size_t{15},  size_t{16},
                     size_t{63}, size_t{64},  size_t{65},  size_t{127},
                     size_t{128}, size_t{129}, size_t{1000}, size_t{4096}}) {
    for (size_t off = 0; off < 4; ++off) {
      const std::span<const std::byte> s(buf.data() + off, len);
      const uint32_t init =
          crc32_init() ^ static_cast<uint32_t>(len * 2654435761u);
      EXPECT_EQ(crc32_update(init, s), crc32_update_portable(init, s))
          << "len=" << len << " off=" << off
          << " accelerated=" << crc32_accelerated();
    }
  }
  // Streaming across an arbitrary split equals one-shot over the whole
  // buffer regardless of which kernel each chunk lands on.
  const std::span<const std::byte> whole(buf.data(), buf.size());
  const uint32_t one_shot = crc32_update(crc32_init(), whole);
  for (size_t split : {size_t{1}, size_t{63}, size_t{64}, size_t{1200}}) {
    uint32_t c = crc32_init();
    c = crc32_update(c, whole.subspan(0, split));
    c = crc32_update(c, whole.subspan(split));
    EXPECT_EQ(c, one_shot) << "split=" << split;
  }
}

// ---------------------------------------------------------------------------
// Section container

std::vector<std::byte> to_bytes(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

TEST(CkptFormat, SectionRoundTrip) {
  const std::string path = scratch_dir("sections") + "/file.fckpt";
  ckpt::SectionWriter w;
  w.add("meta", to_bytes("hello"));
  w.add("client/0", to_bytes("payload zero"));
  w.add("empty", {});
  w.write(path);

  ckpt::SectionReader r(path);
  EXPECT_TRUE(r.has("meta"));
  EXPECT_TRUE(r.has("empty"));
  EXPECT_FALSE(r.has("absent"));
  const auto meta = r.section("meta");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(meta.data()),
                        meta.size()),
            "hello");
  EXPECT_EQ(r.section("empty").size(), 0u);
  EXPECT_THROW(r.section("absent"), Error);
}

TEST(CkptFormat, DuplicateSectionNameRejected) {
  ckpt::SectionWriter w;
  w.add("meta", {});
  EXPECT_THROW(w.add("meta", {}), Error);
}

TEST(CkptFormat, BitFlipInPayloadRejectedByCrc) {
  const std::string path = scratch_dir("bitflip") + "/file.fckpt";
  ckpt::SectionWriter w;
  w.add("data", to_bytes("a payload long enough to land a flip in"));
  w.write(path);
  ASSERT_NO_THROW(ckpt::SectionReader{path});
  flip_byte(path, read_file(path).size() - 3);  // inside the payload
  EXPECT_THROW(ckpt::SectionReader{path}, Error);
}

TEST(CkptFormat, TruncationRejected) {
  const std::string path = scratch_dir("trunc") + "/file.fckpt";
  ckpt::SectionWriter w;
  w.add("data", to_bytes("0123456789abcdef"));
  w.write(path);
  std::vector<std::byte> bytes = read_file(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size() - 5));
  out.close();
  EXPECT_THROW(ckpt::SectionReader{path}, Error);
}

TEST(CkptFormat, WrappingSectionLengthRejected) {
  const std::string path = scratch_dir("wrap") + "/file.fckpt";
  const std::string file = test::wrapping_section_container();
  ASSERT_EQ(file.size(), 46u);
  atomic_write_file(path, std::string_view(file));
  EXPECT_THROW(ckpt::SectionReader{path}, Error);
}

TEST(CkptFormat, WrongMagicAndVersionRejected) {
  const std::string dir = scratch_dir("magic");
  const std::string not_ckpt = dir + "/not.fckpt";
  atomic_write_file(not_ckpt, std::string_view("definitely not a checkpoint"));
  EXPECT_THROW(ckpt::SectionReader{not_ckpt}, Error);

  const std::string versioned = dir + "/v.fckpt";
  ckpt::SectionWriter w;
  w.add("data", to_bytes("x"));
  w.write(versioned);
  flip_byte(versioned, 8);  // first byte of the u32 format version
  EXPECT_THROW(ckpt::SectionReader{versioned}, Error);
}

// ---------------------------------------------------------------------------
// End-to-end resume determinism

core::ExperimentConfig resume_test_config(int rounds) {
  core::ExperimentConfig cfg = tiny_experiment_config();
  cfg.rounds = rounds;
  return cfg;
}

TEST(CheckpointResume, SplitRunIsBitIdenticalToStraightRun) {
  const std::string dir = scratch_dir("resume");

  // Uninterrupted reference: 10 rounds, no checkpointing involved.
  core::Experiment straight_exp(resume_test_config(10));
  core::FedClassAvg straight(straight_exp.fedclassavg_config());
  const core::CompletedRun reference = straight_exp.execute(straight);

  // Phase 1: the same experiment, stopped after 5 rounds, checkpointed.
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 5;
  core::Experiment first_exp(resume_test_config(5));
  core::FedClassAvg first(first_exp.fedclassavg_config());
  const core::CompletedRun half = first_exp.execute(first, opts);
  EXPECT_EQ(half.checkpoint_stats.saves, 1);
  ASSERT_EQ(ckpt::CheckpointManager::available_rounds(dir),
            std::vector<int>{5});

  // Phase 2: fresh process state, resume to round 10.
  core::Experiment second_exp(resume_test_config(10));
  core::FedClassAvg second(second_exp.fedclassavg_config());
  const core::CompletedRun resumed = second_exp.resume(second, opts);
  EXPECT_EQ(resumed.checkpoint_stats.loads, 1);

  expect_bit_identical(reference.result, resumed.result);
}

TEST(CheckpointResume, CorruptNewestFallsBackToPreviousCheckpoint) {
  const std::string dir = scratch_dir("fallback");
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 1;
  opts.keep_last = 3;

  core::Experiment straight_exp(resume_test_config(7));
  core::FedClassAvg straight(straight_exp.fedclassavg_config());
  const core::CompletedRun reference = straight_exp.execute(straight);

  core::Experiment first_exp(resume_test_config(5));
  core::FedClassAvg first(first_exp.fedclassavg_config());
  first_exp.execute(first, opts);
  ASSERT_EQ(ckpt::CheckpointManager::available_rounds(dir),
            (std::vector<int>{3, 4, 5}));

  // Bit-flip the newest file mid-payload: CRC must reject it and resume
  // must fall back to round 4, replaying round 5 deterministically.
  const std::string newest = ckpt::CheckpointManager::checkpoint_path(dir, 5);
  flip_byte(newest, read_file(newest).size() / 2);

  core::Experiment second_exp(resume_test_config(7));
  core::FedClassAvg second(second_exp.fedclassavg_config());
  auto run = test::resident_run(second_exp);
  ckpt::CheckpointManager manager(opts);
  const fl::ResumeState cursor = manager.resume(*run, second);
  EXPECT_EQ(cursor.next_round, 5);  // round-4 checkpoint, not the corrupt 5
  const fl::RunResult resumed = run->execute(second, &manager, &cursor);

  expect_bit_identical(reference.result, resumed);
}

TEST(CheckpointResume, AllCheckpointsCorruptThrows) {
  const std::string dir = scratch_dir("allcorrupt");
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 1;
  opts.keep_last = 2;

  core::Experiment exp(resume_test_config(3));
  core::FedClassAvg strat(exp.fedclassavg_config());
  exp.execute(strat, opts);
  for (int round : ckpt::CheckpointManager::available_rounds(dir)) {
    const std::string path =
        ckpt::CheckpointManager::checkpoint_path(dir, round);
    flip_byte(path, read_file(path).size() / 2);
  }

  core::Experiment exp2(resume_test_config(6));
  core::FedClassAvg strat2(exp2.fedclassavg_config());
  EXPECT_THROW(exp2.resume(strat2, opts), Error);
}

TEST(CheckpointResume, ResumeWithWrongStrategyRejected) {
  const std::string dir = scratch_dir("wrongstrategy");
  ckpt::Options opts;
  opts.dir = dir;

  core::Experiment exp(resume_test_config(2));
  core::FedClassAvg strat(exp.fedclassavg_config());
  exp.execute(strat, opts);

  core::Experiment exp2(resume_test_config(4));
  core::FedClassAvgConfig weight_cfg = exp2.fedclassavg_config();
  weight_cfg.share_all_weights = true;  // different name() -> must refuse
  core::FedClassAvg other(weight_cfg);
  EXPECT_THROW(exp2.resume(other, opts), Error);
}

TEST(CheckpointResume, RetentionKeepsNewestK) {
  const std::string dir = scratch_dir("retention");
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 1;
  opts.keep_last = 2;

  core::Experiment exp(resume_test_config(6));
  core::FedClassAvg strat(exp.fedclassavg_config());
  const core::CompletedRun done = exp.execute(strat, opts);
  EXPECT_EQ(done.checkpoint_stats.saves, 6);
  EXPECT_GT(done.checkpoint_stats.last_file_bytes, 0u);
  EXPECT_EQ(ckpt::CheckpointManager::available_rounds(dir),
            (std::vector<int>{5, 6}));
}

TEST(CheckpointResume, ExecuteOrResumeIsIdempotentEntryPoint) {
  const std::string dir = scratch_dir("idempotent");
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 2;

  core::Experiment reference_exp(resume_test_config(6));
  core::FedClassAvg reference_strat(reference_exp.fedclassavg_config());
  const core::CompletedRun reference =
      reference_exp.execute(reference_strat);

  // First call: no checkpoints -> fresh run of 3 rounds.
  core::Experiment exp3(resume_test_config(3));
  core::FedClassAvg strat3(exp3.fedclassavg_config());
  exp3.execute_or_resume(strat3, opts);
  // Second call: finds the round-2 checkpoint and continues to 6.
  core::Experiment exp6(resume_test_config(6));
  core::FedClassAvg strat6(exp6.fedclassavg_config());
  const core::CompletedRun resumed = exp6.execute_or_resume(strat6, opts);

  expect_bit_identical(reference.result, resumed.result);
}

TEST(CheckpointResume, RoundNumberBeyondIntInFileNameIsIgnored) {
  // A stray file shaped like a checkpoint name whose round does not fit in
  // an int is skipped, not parsed into an out_of_range exception.
  const std::string dir = scratch_dir("roundoverflow");
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 1;
  opts.keep_last = 2;

  core::Experiment exp(resume_test_config(3));
  core::FedClassAvg strat(exp.fedclassavg_config());
  exp.execute(strat, opts);
  atomic_write_file(dir + "/ckpt_round_99999999999.fckpt",
                    std::string_view("stray"));
  EXPECT_EQ(ckpt::CheckpointManager::available_rounds(dir),
            (std::vector<int>{2, 3}));

  core::Experiment exp2(resume_test_config(6));
  core::FedClassAvg strat2(exp2.fedclassavg_config());
  auto run = test::resident_run(exp2);
  ckpt::CheckpointManager manager(opts);
  EXPECT_EQ(manager.resume(*run, strat2).next_round, 4);
  const std::optional<fl::ResumeState> recovered =
      manager.recover(*run, strat2);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->next_round, 4);
}

/// FedClassAvg whose load_state fails the way a fault of the program does,
/// not the way a bad file does.
class LogicErrorOnLoad : public core::FedClassAvg {
 public:
  using core::FedClassAvg::FedClassAvg;
  void load_state(std::span<const std::byte>) override {
    throw std::logic_error("load_state fault");
  }
};

TEST(CheckpointResume, ProgramFaultPropagatesInsteadOfFallingBack) {
  // Only a rejected file (fca::Error) falls back to an older checkpoint. A
  // logic error or a bad_alloc must surface from resume and recover instead
  // of reading as "no loadable checkpoint".
  const std::string dir = scratch_dir("logicerror");
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 1;
  opts.keep_last = 2;

  core::Experiment exp(resume_test_config(3));
  core::FedClassAvg strat(exp.fedclassavg_config());
  exp.execute(strat, opts);
  ASSERT_EQ(ckpt::CheckpointManager::available_rounds(dir).size(), 2u);

  core::Experiment exp2(resume_test_config(6));
  LogicErrorOnLoad faulty(exp2.fedclassavg_config());
  auto run = test::resident_run(exp2);
  ckpt::CheckpointManager manager(opts);
  EXPECT_THROW(manager.resume(*run, faulty), std::logic_error);
  EXPECT_THROW(manager.recover(*run, faulty), std::logic_error);
}

// ---------------------------------------------------------------------------
// Paged (O(active-cohort)) checkpoint/resume

/// Paged lazy-init configuration with partial participation: clients leave
/// and re-enter the resident set across rounds, so a resume must rebuild a
/// cold ClientStore from the checkpoint's sparse client set + bootstrap.
core::ExperimentConfig paged_resume_config(int rounds) {
  core::ExperimentConfig cfg = tiny_experiment_config(6);
  cfg.rounds = rounds;
  cfg.sample_rate = 0.5;
  cfg.max_resident_clients = 3;
  cfg.client_parallelism = 2;
  cfg.lazy_init = true;
  return cfg;
}

TEST(CheckpointResume, PagedSplitRunMatchesStraightPagedRun) {
  const std::string dir = scratch_dir("paged_resume");

  // Uninterrupted paged reference: 8 rounds under the same budget.
  core::Experiment straight_exp(paged_resume_config(8));
  core::FedClassAvg straight(straight_exp.fedclassavg_config());
  const core::CompletedRun reference = straight_exp.execute(straight);

  // And the historical all-resident eager run: the paged lazy curve must
  // match it row for row (traffic totals differ by the skipped init sweep).
  core::ExperimentConfig eager_cfg = paged_resume_config(8);
  eager_cfg.max_resident_clients = 0;
  eager_cfg.lazy_init = false;
  core::Experiment eager_exp(eager_cfg);
  core::FedClassAvg eager(eager_exp.fedclassavg_config());
  const core::CompletedRun all_resident = eager_exp.execute(eager);
  test::expect_curve_identical(all_resident.result, reference.result);

  // Phase 1: stop after 4 rounds, checkpointed.
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 4;
  core::Experiment first_exp(paged_resume_config(4));
  core::FedClassAvg first(first_exp.fedclassavg_config());
  first_exp.execute(first, opts);

  // Phase 2: fresh process state — in particular a *cold* ClientStore whose
  // page directory starts empty — resumed to round 8.
  core::Experiment second_exp(paged_resume_config(8));
  core::FedClassAvg second(second_exp.fedclassavg_config());
  const core::CompletedRun resumed = second_exp.resume(second, opts);
  EXPECT_EQ(resumed.checkpoint_stats.loads, 1);

  expect_bit_identical(reference.result, resumed.result);
}

TEST(CheckpointResume, V4CheckpointRecordsSparseClientSetAndBootstrap) {
  const std::string dir = scratch_dir("paged_sections");
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 1;

  core::Experiment exp(paged_resume_config(1));
  core::FedClassAvg strat(exp.fedclassavg_config());
  const core::CompletedRun done = exp.execute(strat, opts);

  const ckpt::SectionReader reader(
      ckpt::CheckpointManager::checkpoint_path(dir, 1));
  ASSERT_TRUE(reader.has("clients"));
  ASSERT_TRUE(reader.has("bootstrap"));  // lazy-init run

  // The index lists exactly the dirty set — with sample_rate 0.5 and one
  // round, that is the 3 selected clients, not the population of 6 — and a
  // client section exists iff the index lists it.
  utils::ByteReader index(reader.section("clients"));
  const uint32_t count = index.u32();
  EXPECT_EQ(count, 3u);
  std::vector<int> recorded;
  for (uint32_t i = 0; i < count; ++i) {
    recorded.push_back(static_cast<int>(index.u32()));
  }
  index.expect_done();
  for (int k = 0; k < exp.config().num_clients; ++k) {
    const bool listed =
        std::find(recorded.begin(), recorded.end(), k) != recorded.end();
    EXPECT_EQ(reader.has("client/" + std::to_string(k)), listed)
        << "client " << k;
  }
  EXPECT_EQ(recorded, done.run->store().checkpoint_clients());
}

TEST(CheckpointResume, LazyResumeFromEagerCheckpointRejected) {
  // An eager-init run's checkpoint carries no bootstrap payload, so a
  // lazy-init resume cannot rebuild clean clients from it and must say so.
  const std::string dir = scratch_dir("eager_to_lazy");
  ckpt::Options opts;
  opts.dir = dir;
  opts.every = 2;

  core::ExperimentConfig eager_cfg = paged_resume_config(2);
  eager_cfg.lazy_init = false;
  core::Experiment eager_exp(eager_cfg);
  core::FedClassAvg eager(eager_exp.fedclassavg_config());
  eager_exp.execute(eager, opts);

  core::Experiment lazy_exp(paged_resume_config(4));
  core::FedClassAvg lazy(lazy_exp.fedclassavg_config());
  EXPECT_THROW(lazy_exp.resume(lazy, opts), Error);
}

// ---------------------------------------------------------------------------
// Format versioning

TEST(CheckpointVersioning, NewerFormatVersionRejected) {
  // Readers accept exactly kFormatVersion. The stamped u32 at offset 8 is
  // patched in place (the CRCs cover payloads, not the header), so only the
  // version differs from a file this build writes and reads.
  const std::string path = scratch_dir("v_next") + "/file.fckpt";
  for (const uint32_t version : {3u, ckpt::kFormatVersion + 1}) {
    ckpt::SectionWriter w;
    w.add("data", to_bytes("from another build"));
    w.write(path);
    ASSERT_NO_THROW(ckpt::SectionReader{path});
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(8);
    const unsigned char le[4] = {
        static_cast<unsigned char>(version),
        static_cast<unsigned char>(version >> 8),
        static_cast<unsigned char>(version >> 16),
        static_cast<unsigned char>(version >> 24)};
    file.write(reinterpret_cast<const char*>(le), sizeof(le));
    file.close();
    try {
      ckpt::SectionReader reader(path);
      ADD_FAILURE() << "format version " << version << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("format version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace fca
