// Memory-budgeted execution and spill-to-disk tests (docs/spill.md): the
// budget tracker and its watermark, Arena::Reset chunk release, RAII temp
// file/dir cleanup including the throw path, spill runs in the checksummed
// frame format the forked pipes share (runtime/ipc.h) and every truncation
// of one, budget-triggered spilling in the four map/shuffle/reduce engines
// with output byte-identical to the unbudgeted sequential oracle (which
// never spills), multi-run merge order for order-sensitive queries, budget
// flushes of groups that degraded at the mapper, every SYMPLE_FAULT_SPEC
// spill-* mode (retry then graceful in-memory fallback), RunReport shuffle
// counts that include spilled partitions, and zero leaked temp files after
// injected disk failures. Runs under the asan preset.
#include "runtime/spill.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/memory_budget.h"
#include "common/rng.h"
#include "common/text.h"
#include "core/flat_group_map.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "queries/all_queries.h"
#include "queries/text_row.h"
#include "runtime/engine.h"
#include "runtime/lambda_query.h"
#include "runtime/process_engine.h"
#include "workloads/github_gen.h"

namespace symple {
namespace {

// Sets SYMPLE_FAULT_SPEC for one test body; restores on scope exit.
class FaultGuard {
 public:
  explicit FaultGuard(const char* spec) { ::setenv("SYMPLE_FAULT_SPEC", spec, 1); }
  ~FaultGuard() { ::unsetenv("SYMPLE_FAULT_SPEC"); }
};

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// Entries in `dir` other than "." and "..".
size_t CountDirEntries(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return 0;
  }
  size_t n = 0;
  while (const struct dirent* e = ::readdir(d)) {
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
      ++n;
    }
  }
  ::closedir(d);
  return n;
}

// A test-owned scratch directory the engines spill under via
// EngineOptions::spill_dir; removed (recursively, one level) on scope exit.
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/symple-spill-test-XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~ScratchDir() {
    if (DIR* d = ::opendir(path_.c_str()); d != nullptr) {
      while (const struct dirent* e = ::readdir(d)) {
        if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
          ::rmdir((path_ + "/" + e->d_name).c_str());
          ::unlink((path_ + "/" + e->d_name).c_str());
        }
      }
      ::closedir(d);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Dataset SmallGithub() {
  GithubGenParams p;
  p.num_records = 4000;
  p.num_segments = 6;
  // Enough distinct keys that even the compact symbolic summary stream (one
  // ~15-byte packet per repo per segment) outweighs the budget below: the
  // forked engines track only the parent-side shuffle, so the summary volume
  // itself must cross the spill watermark, not just the map-side tables.
  p.num_repos = 400;
  p.filler_bytes = 16;
  return GenerateGithubLog(p);
}

// A budget far below the working set of SmallGithub, so every engine layer
// (map tables, shuffle) actually spills.
EngineOptions TinyBudgetOptions(const std::string& spill_dir = {}) {
  EngineOptions options;
  options.memory_budget_bytes = 16 * 1024;
  options.spill_dir = spill_dir;
  return options;
}

// The bounded single-thread run: the baseline pipeline on one map and one
// reduce slot under the tiny budget.
EngineOptions SingleThreadBudgetOptions(const std::string& spill_dir = {}) {
  EngineOptions options = TinyBudgetOptions(spill_dir);
  options.map_slots = 1;
  options.reduce_slots = 1;
  return options;
}

// --- MemoryBudget -----------------------------------------------------------

TEST(Spill, MemoryBudgetTracksPeakAndWatermark) {
  MemoryBudget b(1000);
  EXPECT_EQ(b.limit_bytes(), 1000u);
  b.Charge(500);
  EXPECT_FALSE(b.over());  // watermark is 3/4 of the limit
  b.Charge(250);
  EXPECT_TRUE(b.over());
  EXPECT_FALSE(b.critical());  // hard backpressure starts at 7/8, not 3/4
  EXPECT_EQ(b.tracked_bytes(), 750u);
  b.Charge(125);
  EXPECT_TRUE(b.critical());
  b.Release(225);
  EXPECT_FALSE(b.over());
  EXPECT_FALSE(b.critical());
  EXPECT_EQ(b.peak_bytes(), 875u);  // high-water mark survives the release

  // Track-only mode: peak accounting without ever reporting over().
  MemoryBudget track_only(0);
  track_only.Charge(1u << 30);
  EXPECT_FALSE(track_only.over());
  EXPECT_FALSE(track_only.critical());
  EXPECT_EQ(track_only.peak_bytes(), 1u << 30);
}

// --- Arena::Reset releases growth -------------------------------------------

TEST(Spill, ArenaResetReleasesAllButFirstChunk) {
  Arena arena;
  MemoryBudget budget(0);
  arena.SetMemoryBudget(&budget);

  // Force the doubling ramp through several chunks.
  for (int i = 0; i < 1000; ++i) {
    arena.Allocate(512, 8);
  }
  const uint64_t grown = arena.bytes_reserved();
  ASSERT_GT(grown, Arena::kMinChunkBytes);
  EXPECT_EQ(budget.tracked_bytes(), grown);

  arena.Reset();
  // Only the first chunk survives; the growth is handed back, both to the
  // OS and to the tracker.
  EXPECT_EQ(arena.bytes_reserved(), Arena::kMinChunkBytes);
  EXPECT_EQ(budget.tracked_bytes(), Arena::kMinChunkBytes);
  EXPECT_EQ(arena.bytes_allocated(), 0u);

  // The retained chunk is reused: small allocations after Reset must not
  // reserve anything new.
  arena.Allocate(64, 8);
  EXPECT_EQ(arena.bytes_reserved(), Arena::kMinChunkBytes);
}

TEST(Spill, GroupMapClearReturnsArenaBytesToBaseline) {
  FlatGroupMap<int64_t, int64_t> map;
  MemoryBudget budget(0);
  map.SetMemoryBudget(&budget);
  const uint64_t baseline = budget.tracked_bytes();
  for (int64_t k = 0; k < 20000; ++k) {
    *map.GetOrEmplace(k).first += 1;
  }
  ASSERT_GT(map.stats().arena_bytes, 0u);
  ASSERT_GT(budget.tracked_bytes(), baseline);
  map.Clear();
  EXPECT_EQ(map.stats().arena_bytes, 0u);
  // The index keeps its capacity (clear-and-reuse contract) but the arena
  // growth is released: tracked usage falls back near the empty-table cost.
  EXPECT_EQ(budget.tracked_bytes(),
            map.bucket_capacity() * 8 + Arena::kMinChunkBytes);
}

// --- TempDir / TempFile RAII ------------------------------------------------

TEST(Spill, TempDirAndFileUnlinkOnDestruction) {
  std::string dir_path;
  std::string file_path;
  {
    internal::TempDir dir("");
    dir_path = dir.path();
    ASSERT_TRUE(PathExists(dir_path));
    {
      internal::TempFile file(dir.path(), "block.spill");
      file_path = file.path();
      ASSERT_TRUE(PathExists(file_path));
      ASSERT_GE(file.fd(), 0);
    }
    EXPECT_FALSE(PathExists(file_path));  // unlinked by ~TempFile
  }
  EXPECT_FALSE(PathExists(dir_path));  // swept and removed by ~TempDir
}

TEST(Spill, TempFileUnlinksWhenExceptionUnwinds) {
  internal::TempDir dir("");
  std::string file_path;
  try {
    internal::TempFile file(dir.path(), "doomed.spill");
    file_path = file.path();
    ASSERT_TRUE(PathExists(file_path));
    throw std::runtime_error("mid-spill failure");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(PathExists(file_path));
}

TEST(Spill, TempDirSweepsFilesLeftByCrashedOwners) {
  // A forked child that dies mid-spill leaves its file behind; the parent's
  // TempDir destructor must sweep it.
  std::string dir_path;
  {
    internal::TempDir dir("");
    dir_path = dir.path();
    const std::string orphan = dir.path() + "/orphan.spill";
    const int fd = ::open(orphan.c_str(), O_CREAT | O_WRONLY, 0600);
    ASSERT_GE(fd, 0);
    ::close(fd);
    ASSERT_TRUE(PathExists(orphan));
  }
  EXPECT_FALSE(PathExists(dir_path));
}

TEST(Spill, TempFileCreateFailureThrowsIoError) {
  EXPECT_THROW(internal::TempFile("/nonexistent-base-dir-xyz", "f"),
               SympleIoError);
}

// --- spill run format -------------------------------------------------------

// Reads the frame payloads of a run file back with ReadFrame.
std::vector<std::vector<uint8_t>> ReadRun(const std::string& path) {
  const internal::UniqueFd fd = internal::OpenRun(path);
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint8_t> payload;
  while (internal::ReadFrame(fd.get(), &payload)) {
    payloads.push_back(payload);
  }
  return payloads;
}

TEST(Spill, WriterReaderRoundTrip) {
  internal::TempDir dir("");
  internal::TempFile file(dir.path(), "run-0.spill");
  internal::FrameWriter writer(file.fd(), nullptr);
  const std::vector<uint8_t> a = {1, 2, 3};
  const std::vector<uint8_t> b(1000, 0xAB);
  writer.WriteFrame(internal::kFramePackets, a);
  writer.WriteFrame(internal::kFramePackets, b);
  EXPECT_EQ(writer.frames_written(), 2u);
  EXPECT_EQ(writer.bytes_written(),
            a.size() + b.size() + 2 * internal::kFrameEnvelopeBytes);
  EXPECT_TRUE(internal::VerifySpillFile(file.path(), 2));
  EXPECT_FALSE(internal::VerifySpillFile(file.path(), 3));  // count cross-check

  const std::vector<std::vector<uint8_t>> payloads = ReadRun(file.path());
  ASSERT_EQ(payloads.size(), 2u);  // then a clean EOF
  uint8_t type = 0;
  BinaryReader r = internal::ValidateFrame(payloads[0], &type);
  EXPECT_EQ(type, internal::kFramePackets);
  std::vector<uint8_t> body(r.remaining());
  r.ReadBytes(body.data(), body.size());
  EXPECT_EQ(body, a);
  r = internal::ValidateFrame(payloads[1], &type);
  EXPECT_EQ(type, internal::kFramePackets);
  body.resize(r.remaining());
  r.ReadBytes(body.data(), body.size());
  EXPECT_EQ(body, b);
}

TEST(Spill, ReaderDetectsOnDiskCorruption) {
  internal::TempDir dir("");
  internal::TempFile file(dir.path(), "run-0.spill");
  internal::FrameWriter writer(file.fd(), nullptr);
  writer.WriteFrame(internal::kFramePackets, std::vector<uint8_t>(64, 7));

  // Flip one payload bit behind the writer's back.
  uint8_t byte = 0;
  const off_t victim = static_cast<off_t>(internal::kFrameEnvelopeBytes) + 5;
  ASSERT_EQ(::pread(file.fd(), &byte, 1, victim), 1);
  byte ^= 0x10;
  ASSERT_EQ(::pwrite(file.fd(), &byte, 1, victim), 1);

  EXPECT_FALSE(internal::VerifySpillFile(file.path(), 1));
  const std::vector<std::vector<uint8_t>> payloads = ReadRun(file.path());
  ASSERT_EQ(payloads.size(), 1u);
  uint8_t type = 0;
  EXPECT_THROW(internal::ValidateFrame(payloads[0], &type), SympleWireError);
}

TEST(Spill, EveryTruncationOfARunFailsVerification) {
  // A cut inside a frame fails the read; the cut at the frame boundary (and
  // the empty file) leaves whole frames, so the frame count check fails.
  internal::TempDir dir("");
  internal::TempFile file(dir.path(), "run-0.spill");
  internal::FrameWriter writer(file.fd(), nullptr);
  writer.WriteFrame(internal::kFramePackets, std::vector<uint8_t>(40, 3));
  writer.WriteFrame(internal::kFramePackets, {5, 6, 7});
  ASSERT_TRUE(internal::VerifySpillFile(file.path(), 2));
  for (uint64_t len = writer.bytes_written(); len-- > 0;) {
    ASSERT_EQ(::ftruncate(file.fd(), static_cast<off_t>(len)), 0);
    EXPECT_FALSE(internal::VerifySpillFile(file.path(), 2)) << "cut at " << len;
  }
}

TEST(Spill, InjectedFaultsFollowTheSpec) {
  // frame=0 fails exactly the first frame write; the next write succeeds.
  FaultGuard guard("spill-enospc:worker=*:frame=0");
  EXPECT_FALSE(internal::FaultSpecFromEnv(/*spill=*/false).has_value());
  internal::FaultInjector faults{internal::FaultSpecFromEnv(/*spill=*/true)};
  internal::TempDir dir("");
  internal::TempFile file(dir.path(), "run-0.spill");
  internal::FrameWriter writer(file.fd(), &faults);
  const std::vector<uint8_t> body = {9, 9, 9};
  EXPECT_THROW(writer.WriteFrame(internal::kFramePackets, body), SympleIoError);
  EXPECT_EQ(writer.frames_written(), 0u);
  writer.WriteFrame(internal::kFramePackets, body);
  EXPECT_TRUE(internal::VerifySpillFile(file.path(), 1));
}

// --- budget-triggered spilling in all five engines --------------------------

// Runs `engine` with a traced observer attached and checks that the
// RunReport's shuffle histograms count spilled partitions whole, not just
// their in-memory remainder: partition runs sum to the groups reduced, and
// partition packets to the packets the reduce tasks consumed.
template <typename Engine>
auto RunCheckingShuffleReport(Engine engine, EngineOptions options) {
  obs::Tracer tracer;
  obs::RunObserver observer("spill", &tracer);
  options.observer = &observer;
  auto result = engine(options);
  obs::RunReport report;
  observer.FillReport(&report);
  EXPECT_EQ(report.shuffle_partition_runs.sum, result.stats.groups);
  if (obs::Enabled()) {  // reduce_task spans carry the packet counts
    uint64_t reduced_packets = 0;
    for (const obs::TraceSpan& span : tracer.Spans()) {
      for (const auto& [name, value] : span.args) {
        if (span.name == "reduce_task" && name == "packets") {
          reduced_packets += value;
        }
      }
    }
    EXPECT_GT(reduced_packets, 0u);
    EXPECT_EQ(report.shuffle_partition_packets.sum, reduced_packets);
  }
  return result;
}

TEST(Spill, AllFiveEnginesSpillByteIdenticalToSequential) {
  const Dataset data = SmallGithub();
  const auto ref = RunSequential<G1OnlyPushes>(data);  // unbudgeted reference
  EXPECT_EQ(ref.stats.spill_runs, 0u);

  const EngineOptions budgeted = TinyBudgetOptions();

  // The oracle ignores the budget: same outputs, never a spill, peak still
  // tracked.
  const auto seq = RunSequential<G1OnlyPushes>(data, budgeted);
  EXPECT_TRUE(seq.outputs == ref.outputs);
  EXPECT_EQ(seq.stats.spill_runs, 0u);
  EXPECT_GT(seq.stats.peak_tracked_bytes, 0u);

  // The bounded single-thread run is the pipeline at one slot.
  const auto single =
      RunBaselineMapReduce<G1OnlyPushes>(data, SingleThreadBudgetOptions());
  EXPECT_TRUE(single.outputs == ref.outputs);
  EXPECT_GT(single.stats.spill_runs, 0u);
  EXPECT_GT(single.stats.spill_bytes, 0u);
  EXPECT_EQ(single.stats.groups, ref.stats.groups);

  const auto mr = RunCheckingShuffleReport(
      [&](const EngineOptions& o) { return RunBaselineMapReduce<G1OnlyPushes>(data, o); },
      budgeted);
  EXPECT_TRUE(mr.outputs == ref.outputs);
  EXPECT_GT(mr.stats.spill_runs, 0u);
  EXPECT_GT(mr.stats.spill_merge_ms, 0.0);

  const auto sym = RunCheckingShuffleReport(
      [&](const EngineOptions& o) { return RunSymple<G1OnlyPushes>(data, o); }, budgeted);
  EXPECT_TRUE(sym.outputs == ref.outputs);
  EXPECT_GT(sym.stats.spill_runs, 0u);

  EngineOptions forked = budgeted;
  forked.map_slots = 2;
  const auto sym_forked = RunCheckingShuffleReport(
      [&](const EngineOptions& o) { return RunSympleForked<G1OnlyPushes>(data, o); },
      forked);
  EXPECT_TRUE(sym_forked.outputs == ref.outputs);
  EXPECT_GT(sym_forked.stats.spill_runs, 0u);

  const auto mr_forked = RunCheckingShuffleReport(
      [&](const EngineOptions& o) { return RunBaselineForked<G1OnlyPushes>(data, o); },
      forked);
  EXPECT_TRUE(mr_forked.outputs == ref.outputs);
  EXPECT_GT(mr_forked.stats.spill_runs, 0u);
}

TEST(Spill, OrderSensitiveQuerySurvivesMultiRunMerge) {
  // G3 windows depend on per-key record order: a merge that scrambled the
  // (key, mapper, record) sequence across spilled runs and the in-memory
  // remainder would change results, not just formatting.
  const Dataset data = SmallGithub();
  const auto ref = RunSequential<G3PullWindowOps>(data);

  const EngineOptions budgeted = TinyBudgetOptions();
  const auto mr = RunBaselineMapReduce<G3PullWindowOps>(data, budgeted);
  EXPECT_TRUE(mr.outputs == ref.outputs);
  EXPECT_GT(mr.stats.spill_runs, 1u);  // multiple sorted runs merged back

  const auto sym = RunSymple<G3PullWindowOps>(data, budgeted);
  EXPECT_TRUE(sym.outputs == ref.outputs);
  EXPECT_GT(sym.stats.spill_runs, 0u);
}

// --- deferred markers with a replay start record ----------------------------

// Minimal "total value per account" query over lines "account<TAB>amount",
// mirroring the wire-hardening golden query.
struct LedgerState {
  SymInt total = 0;
  SymInt deposits = 0;
  auto list_fields() { return std::tie(total, deposits); }
};

struct LedgerEvent {
  int64_t amount = 0;
};

std::optional<std::pair<int64_t, LedgerEvent>> LedgerParse(std::string_view line) {
  FieldCursor cur(line);
  const auto account = cur.Next();
  const auto amount = cur.Next();
  if (!account || !amount) {
    return std::nullopt;
  }
  const auto account_id = ParseInt64(*account);
  const auto amount_v = ParseInt64(*amount);
  if (!account_id || !amount_v) {
    return std::nullopt;
  }
  return std::make_pair(*account_id, LedgerEvent{*amount_v});
}

void LedgerUpdate(LedgerState& s, const LedgerEvent& e) {
  s.total += e.amount;
  if (e.amount > 0) {
    s.deposits += 1;
  }
}

std::pair<int64_t, int64_t> LedgerResult(const LedgerState& s, const int64_t&) {
  return {s.total.Value(), s.deposits.Value()};
}

void LedgerSerialize(const LedgerEvent& e, BinaryWriter& w) {
  WriteTextRow(w, {e.amount});
}

LedgerEvent LedgerDeserialize(BinaryReader& r) {
  return LedgerEvent{ReadTextRow<1>(r)[0]};
}

using LedgerQuery = LambdaQuery<"ledger", &LedgerParse, &LedgerUpdate, &LedgerResult,
                                &LedgerSerialize, &LedgerDeserialize>;

TEST(Spill, DeferredMarkerReplaysFromItsStartRecord) {
  // A budget-flushed incarnation that later degrades ships a marker whose
  // start_record points past the records its earlier flush already shipped
  // as summaries. Replay must cover exactly [start_record, end-of-segment].
  const Dataset data = DatasetFromLines({{"1\t5", "1\t-3", "1\t7"}});
  internal::ShufflePacket<int64_t> marker;
  marker.key = 1;
  marker.mapper_id = 0;
  marker.record_id = 1;
  marker.blob = internal::MakeDeferredBlob(0, DegradeReason::kMemoryBudget,
                                           "state could not spill", 1);
  internal::DegradeAccounting acct;
  LedgerState state{};
  internal::SympleReduceKey<LedgerQuery>(data, ReduceMode::kSequentialFold, 1,
                                         &marker, &marker + 1, state, &acct);
  // Records 1 and 2 only: -3 + 7; one positive amount.
  EXPECT_EQ(state.total.Value(), 4);
  EXPECT_EQ(state.deposits.Value(), 1);
  EXPECT_EQ(acct.degraded_segments, 1u);
  EXPECT_EQ(acct.reasons[static_cast<size_t>(DegradeReason::kMemoryBudget)], 1u);
}

// --- budget flushes combined with map-side degradation ------------------------

// A ledger whose Update refuses symbolic state for odd accounts, so every odd
// account's group degrades at the mapper while even accounts stay symbolic.
struct AccountEvent {
  int64_t account = 0;
  int64_t amount = 0;
};

std::optional<std::pair<int64_t, AccountEvent>> AccountParse(std::string_view line) {
  const auto rec = LedgerParse(line);
  if (!rec) {
    return std::nullopt;
  }
  return std::make_pair(rec->first, AccountEvent{rec->first, rec->second.amount});
}

void OddAccountsUnsupportedUpdate(LedgerState& s, const AccountEvent& e) {
  if (e.account % 2 != 0 && !s.total.is_concrete()) {
    throw SympleUnsupportedOpError("odd accounts cannot run symbolically");
  }
  s.total += e.amount;
  if (e.amount > 0) {
    s.deposits += 1;
  }
}

void AccountSerialize(const AccountEvent& e, BinaryWriter& w) {
  WriteTextRow(w, {e.account, e.amount});
}

AccountEvent AccountDeserialize(BinaryReader& r) {
  const auto row = ReadTextRow<2>(r);
  return AccountEvent{row[0], row[1]};
}

using OddUnsupportedLedger =
    LambdaQuery<"odd_unsupported_ledger", &AccountParse, &OddAccountsUnsupportedUpdate,
                &LedgerResult, &AccountSerialize, &AccountDeserialize>;

TEST(Spill, BudgetFlushComposesWithDegradedGroups) {
  // Mid-chunk budget flushes ship healthy groups' summaries-so-far and the
  // degraded groups' replay markers; the reducer must compose both back into
  // the sequential result at every morsel granularity.
  SplitMix64 rng(2015);
  std::vector<std::vector<std::string>> segments(6);
  for (auto& segment : segments) {
    for (int i = 0; i < 1500; ++i) {
      const int64_t account = static_cast<int64_t>(rng.Below(400));
      const int64_t amount = static_cast<int64_t>(rng.Below(200)) - 100;
      segment.push_back(std::to_string(account) + "\t" + std::to_string(amount));
    }
  }
  const Dataset data = DatasetFromLines(segments);
  const auto ref = RunSequential<OddUnsupportedLedger>(data);
  for (const size_t morsel : {size_t{0}, size_t{300}, size_t{1} << 30}) {
    EngineOptions unbudgeted;
    unbudgeted.morsel_records = morsel;
    EngineOptions budgeted = TinyBudgetOptions();
    budgeted.morsel_records = morsel;
    const auto plain = RunSymple<OddUnsupportedLedger>(data, unbudgeted);
    const auto sym = RunSymple<OddUnsupportedLedger>(data, budgeted);
    EXPECT_TRUE(plain.outputs == ref.outputs) << "morsel_records=" << morsel;
    EXPECT_TRUE(sym.outputs == ref.outputs) << "morsel_records=" << morsel;
    EXPECT_GT(sym.stats.degraded_segments, 0u) << "morsel_records=" << morsel;
    EXPECT_EQ(sym.stats.degraded_segments, plain.stats.degraded_segments)
        << "morsel_records=" << morsel;
    // Flushed incarnations ship extra packets, so a run that really flushed
    // crosses more bytes than the same run without a budget.
    EXPECT_GT(sym.stats.shuffle_bytes, plain.stats.shuffle_bytes)
        << "morsel_records=" << morsel;
  }
}

TEST(Spill, DegradedGroupsStillFlushUnderBudget) {
  // Every parsed record counts toward the map task's budget check, including
  // records of groups that already degraded: a table whose groups all
  // degraded must still flush instead of growing past the budget. One map
  // slot keeps the peak deterministic; the tiny budget sits below the
  // per-table floor, so the bound is the healthy run's peak, not the budget.
  const Dataset data = SmallGithub();
  const auto ref = RunSequential<G1OnlyPushes>(data);
  const auto healthy = RunSymple<G1OnlyPushes>(data, SingleThreadBudgetOptions());
  EngineOptions forced = SingleThreadBudgetOptions();
  forced.budgets.force_degrade = true;
  const auto sym = RunSymple<G1OnlyPushes>(data, forced);
  EXPECT_TRUE(sym.outputs == ref.outputs);
  EXPECT_GT(sym.stats.degraded_segments, 0u);
  EXPECT_LE(sym.stats.peak_tracked_bytes, healthy.stats.peak_tracked_bytes * 3 / 2);
}

// --- fault-injected engine runs ---------------------------------------------

TEST(SpillFault, EveryModeRecoversViaRetry) {
  const Dataset data = SmallGithub();
  const auto ref = RunSequential<G1OnlyPushes>(data);
  for (const char* spec :
       {"spill-enospc:worker=*:frame=0", "spill-short-write:worker=*:frame=0",
        "spill-corrupt:worker=*:frame=0"}) {
    FaultGuard guard(spec);
    const auto mr =
        RunBaselineMapReduce<G1OnlyPushes>(data, TinyBudgetOptions());
    EXPECT_TRUE(mr.outputs == ref.outputs) << spec;
    // The first write failed but the fresh-file retry succeeded: the run
    // still spilled instead of falling back to memory.
    EXPECT_GT(mr.stats.spill_runs, 0u) << spec;

    const auto single =
        RunBaselineMapReduce<G1OnlyPushes>(data, SingleThreadBudgetOptions());
    EXPECT_TRUE(single.outputs == ref.outputs) << spec;
    EXPECT_GT(single.stats.spill_runs, 0u) << spec;
  }
}

TEST(SpillFault, PersistentDiskFailureFallsBackToMemory) {
  // frame=* fails every write: both the first attempt and the retry. The
  // engines must finish in memory — over budget, but correct.
  const Dataset data = SmallGithub();
  const auto ref = RunSequential<G1OnlyPushes>(data);
  // The forked parent charges and spills through the same AddBatch, and both
  // forked engines spill under this budget, so under the fault each of their
  // failed spills puts its sorted block back into its partition as one more
  // run.
  EXPECT_GT(RunBaselineForked<G1OnlyPushes>(data, TinyBudgetOptions()).stats.spill_runs,
            0u);
  EXPECT_GT(RunSympleForked<G1OnlyPushes>(data, TinyBudgetOptions()).stats.spill_runs,
            0u);
  FaultGuard guard("spill-enospc:worker=*:frame=*");

  const auto mr = RunBaselineMapReduce<G1OnlyPushes>(data, TinyBudgetOptions());
  EXPECT_TRUE(mr.outputs == ref.outputs);
  EXPECT_EQ(mr.stats.spill_runs, 0u);

  const auto single =
      RunBaselineMapReduce<G1OnlyPushes>(data, SingleThreadBudgetOptions());
  EXPECT_TRUE(single.outputs == ref.outputs);
  EXPECT_EQ(single.stats.spill_runs, 0u);

  const auto sym = RunSymple<G1OnlyPushes>(data, TinyBudgetOptions());
  EXPECT_TRUE(sym.outputs == ref.outputs);
  EXPECT_EQ(sym.stats.spill_runs, 0u);

  const auto mr_forked = RunBaselineForked<G1OnlyPushes>(data, TinyBudgetOptions());
  EXPECT_TRUE(mr_forked.outputs == ref.outputs);
  EXPECT_EQ(mr_forked.stats.spill_runs, 0u);

  const auto sym_forked = RunSympleForked<G1OnlyPushes>(data, TinyBudgetOptions());
  EXPECT_TRUE(sym_forked.outputs == ref.outputs);
  EXPECT_EQ(sym_forked.stats.spill_runs, 0u);
}

TEST(SpillFault, NoTempFilesLeakAfterInjectedEnospc) {
  const Dataset data = SmallGithub();
  const auto ref = RunSequential<G1OnlyPushes>(data);
  ScratchDir scratch;

  {  // clean run
    const auto mr = RunBaselineMapReduce<G1OnlyPushes>(
        data, TinyBudgetOptions(scratch.path()));
    EXPECT_TRUE(mr.outputs == ref.outputs);
    EXPECT_GT(mr.stats.spill_runs, 0u);
    EXPECT_EQ(CountDirEntries(scratch.path()), 0u);
  }
  {  // the retry path: first write fails, fresh file succeeds
    FaultGuard guard("spill-enospc:worker=*:frame=0");
    const auto mr = RunBaselineMapReduce<G1OnlyPushes>(
        data, TinyBudgetOptions(scratch.path()));
    EXPECT_TRUE(mr.outputs == ref.outputs);
    EXPECT_EQ(CountDirEntries(scratch.path()), 0u);
  }
  {  // persistent failure: everything stays in memory, nothing leaks
    FaultGuard guard("spill-short-write:worker=*:frame=*");
    const auto single = RunBaselineMapReduce<G1OnlyPushes>(
        data, SingleThreadBudgetOptions(scratch.path()));
    EXPECT_TRUE(single.outputs == ref.outputs);
    EXPECT_EQ(single.stats.spill_runs, 0u);
    EXPECT_EQ(CountDirEntries(scratch.path()), 0u);
  }
}

TEST(SpillFault, ForkedWorkerCrashCombinesWithSpillFault) {
  // A worker crash (pipe-frame fault) and a disk fault (spill-block fault)
  // in the same run: segment retry and fresh-file spill retry must compose.
  const Dataset data = SmallGithub();
  const auto ref = RunSequential<G1OnlyPushes>(data);

  FaultGuard guard("crash:worker=1:frame=1;spill-corrupt:worker=*:frame=0");
  EngineOptions options = TinyBudgetOptions();
  options.map_slots = 3;
  const auto forked = RunSympleForked<G1OnlyPushes>(data, options);
  EXPECT_TRUE(forked.outputs == ref.outputs);
  EXPECT_GE(forked.stats.worker_crashes, 1u);
  EXPECT_GE(forked.stats.worker_retries, 1u);
  EXPECT_GT(forked.stats.spill_runs, 0u);
}

}  // namespace
}  // namespace symple
