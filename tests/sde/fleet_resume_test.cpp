// The fleet's durable job queue (sde/fleet.hpp, snapshot/manifest.hpp):
// how a run directory binds to one run, and what a resume does with it.
//
//  - A resume refuses a directory whose manifest describes another run
//    (horizon, partition width), instead of mixing the two.
//  - A fresh start clears the job files of an earlier, interrupted run:
//    every job executes again.
//  - A resume of a directory without a manifest is a fresh start.
//  - A resume never re-runs a completed job: only the job whose .done
//    file is missing executes.
//
// The fleet forks workers but kills nothing, so these tests run under
// the sanitizers too.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sde/fleet.hpp"
#include "snapshot/error.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace sde {
namespace {

namespace fs = std::filesystem;

trace::CollectScenarioConfig smallGrid(std::uint64_t simulationTime) {
  trace::CollectScenarioConfig config;
  config.gridWidth = 5;
  config.gridHeight = 5;
  config.simulationTime = simulationTime;
  config.mapper = MapperKind::kSds;
  return config;
}

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sde_" + name);
  fs::remove_all(dir);
  return dir;
}

FleetConfig fleetIn(const fs::path& dir) {
  FleetConfig fleet;
  fleet.processes = 2;
  fleet.checkpointDir = dir.string();
  return fleet;
}

std::uint64_t threadDigest(const trace::CollectScenarioConfig& config,
                           std::size_t vars) {
  ParallelConfig threads;
  threads.workers = 2;
  return trace::runCollectPartitioned(config, threads, vars)
      .result.fingerprintDigest();
}

TEST(ResumeValidationTest, ForeignManifestRefusesToResume) {
  const fs::path dir = freshDir("fleet_manifest_mismatch");
  const auto config = smallGrid(3000);
  ASSERT_EQ(trace::runCollectFleet(config, fleetIn(dir), /*vars=*/2)
                .result.outcome,
            RunOutcome::kCompleted);

  // Same directory, different run (longer horizon): the manifest check
  // must refuse rather than mix incompatible checkpoints.
  FleetConfig resume = fleetIn(dir);
  resume.resume = true;
  EXPECT_THROW((void)trace::runCollectFleet(smallGrid(5000), resume,
                                            /*vars=*/2),
               snapshot::SnapshotError);
  // A different partition width is a different run too.
  EXPECT_THROW((void)trace::runCollectFleet(config, resume, /*vars=*/1),
               snapshot::SnapshotError);
  fs::remove_all(dir);
}

TEST(ResumeValidationTest, FreshStartClearsStaleArtifacts) {
  const fs::path dir = freshDir("fleet_fresh_start");
  const auto config = smallGrid(4000);

  // An interrupted run: suspended at its first checkpoint, so the
  // directory holds a suspended job's .ckpt (and maybe .done files).
  FleetConfig interrupted = fleetIn(dir);
  interrupted.processes = 1;
  interrupted.checkpointEveryEvents = 64;
  const fs::path sentinel = dir / "suspend_now";
  interrupted.chaos.onCheckpoint = [sentinel](unsigned, std::uint32_t) {
    std::ofstream(sentinel).put('x');
  };
  interrupted.stopRequested = [&sentinel] { return fs::exists(sentinel); };
  ASSERT_TRUE(
      trace::runCollectFleet(config, interrupted, /*vars=*/2).suspended);
  bool anyCheckpoint = false;
  for (std::uint32_t id = 0; id < 4; ++id)
    anyCheckpoint |= fs::exists(snapshot::jobCheckpointPath(dir, id));
  ASSERT_TRUE(anyCheckpoint);

  // Without resume the directory is restarted from scratch: stale
  // checkpoints and .done files must not leak into the new run.
  const FleetResult restarted =
      trace::runCollectFleet(config, fleetIn(dir), /*vars=*/2);
  EXPECT_EQ(restarted.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(restarted.executedCounts, std::vector<std::uint32_t>(4, 1u));
  EXPECT_EQ(restarted.result.fingerprintDigest(), threadDigest(config, 2));
  fs::remove_all(dir);
}

TEST(ResumeValidationTest, MissingManifestDegradesToAFreshStart) {
  const fs::path dir = freshDir("fleet_missing_manifest");
  const auto config = smallGrid(3000);
  FleetConfig resume = fleetIn(dir);
  resume.resume = true;  // nothing there yet: must run, not throw
  const FleetResult run = trace::runCollectFleet(config, resume, /*vars=*/2);
  EXPECT_EQ(run.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(run.executedCounts, std::vector<std::uint32_t>(4, 1u));
  EXPECT_TRUE(fs::exists(snapshot::manifestPath(dir)));
  fs::remove_all(dir);
}

TEST(CrashRecoveryTest, CompletedJobsAreNeverReRun) {
  const fs::path dir = freshDir("fleet_done_skip");
  const auto config = smallGrid(4000);
  const FleetResult full =
      trace::runCollectFleet(config, fleetIn(dir), /*vars=*/2);
  ASSERT_EQ(full.result.outcome, RunOutcome::kCompleted);
  ASSERT_EQ(full.result.jobs.size(), 4u);

  // Simulate a run killed after finishing every job but #2: drop that
  // job's completion marker.
  ASSERT_TRUE(fs::remove(snapshot::jobDonePath(dir, 2)));

  FleetConfig resume = fleetIn(dir);
  resume.resume = true;
  const FleetResult resumed =
      trace::runCollectFleet(config, resume, /*vars=*/2);
  // Only the job whose marker vanished ran an engine; the other three
  // were answered from their .done files.
  EXPECT_EQ(resumed.executedCounts, (std::vector<std::uint32_t>{0, 0, 1, 0}));
  EXPECT_EQ(resumed.result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(resumed.result.fingerprintDigest(),
            full.result.fingerprintDigest());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sde
