// sde_checkpoint — inspect and validate durable SDE runs.
//
//   sde_checkpoint inspect  <file.ckpt>   header of one engine checkpoint
//   sde_checkpoint inspect  <dir>         run manifest + per-job progress
//   sde_checkpoint validate <dir>         parse every file; nonzero exit on
//                                         any torn/foreign/version-mismatched
//                                         artifact
//
// To finish an interrupted run directory, use `sde_fleet resume <dir>`.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "snapshot/checkpoint.hpp"
#include "snapshot/manifest.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sde;

int inspectCheckpointFile(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "cannot open %s\n", path.string().c_str());
    return 1;
  }
  const snapshot::CheckpointInfo info = snapshot::inspectCheckpointHeader(is);
  std::printf("checkpoint       %s\n", path.string().c_str());
  std::printf("format version   %u\n", info.version);
  std::printf("network nodes    %u\n", info.numNodes);
  std::printf("mapper           %s\n", info.mapper.c_str());
  std::printf("booted           %s\n", info.booted ? "yes" : "no");
  std::printf("states           %llu\n",
              static_cast<unsigned long long>(info.numStates));
  std::printf("virtual time     %llu\n",
              static_cast<unsigned long long>(info.virtualNow));
  std::printf("events processed %llu\n",
              static_cast<unsigned long long>(info.eventsProcessed));
  return 0;
}

// Shared by inspect (report) and validate (report + strictness): walks the
// run directory and returns the number of broken artifacts.
int surveyRunDir(const fs::path& dir, bool verbose) {
  const snapshot::RunManifest manifest = snapshot::readManifest(dir);
  if (verbose) {
    std::printf("run directory    %s\n", dir.string().c_str());
    std::printf("horizon          %llu\n",
                static_cast<unsigned long long>(manifest.horizon));
    std::printf("partition vars   %zu\n", manifest.plan.variables.size());
    std::printf("jobs             %zu\n", manifest.plan.jobs.size());
    std::printf("scenario spec    %s\n", manifest.scenarioSpec.empty()
                                             ? "<none>"
                                             : manifest.scenarioSpec.c_str());
    std::printf("\n");
  }

  int broken = 0;
  std::size_t done = 0, suspended = 0, pending = 0;
  for (const PartitionJob& job : manifest.plan.jobs) {
    const fs::path donePath = snapshot::jobDonePath(dir, job.id);
    const fs::path ckptPath = snapshot::jobCheckpointPath(dir, job.id);
    std::string status;
    if (fs::exists(donePath)) {
      try {
        const JobResult result = snapshot::readJobResultFile(donePath);
        status = "done (" + std::to_string(result.states) + " states, " +
                 std::to_string(result.scenariosOwned) + " owned scenarios)";
        ++done;
      } catch (const snapshot::SnapshotError& e) {
        status = std::string("BROKEN done file: ") + e.what();
        ++broken;
      }
    } else if (fs::exists(ckptPath)) {
      try {
        std::ifstream is(ckptPath, std::ios::binary);
        const snapshot::CheckpointInfo info =
            snapshot::inspectCheckpointHeader(is);
        status = "suspended (" + std::to_string(info.numStates) +
                 " states at virtual time " + std::to_string(info.virtualNow) +
                 ")";
        ++suspended;
      } catch (const snapshot::SnapshotError& e) {
        status = std::string("BROKEN checkpoint: ") + e.what();
        ++broken;
      }
    } else {
      status = "pending (no checkpoint yet)";
      ++pending;
    }
    if (verbose) std::printf("job %-4u %s\n", job.id, status.c_str());
  }
  if (verbose) {
    std::printf("\n%zu done, %zu suspended, %zu pending", done, suspended,
                pending);
    if (broken != 0) std::printf(", %d BROKEN", broken);
    std::printf("\n");
  }
  return broken;
}

int usage() {
  std::fprintf(stderr,
               "usage: sde_checkpoint inspect  <file.ckpt | dir>\n"
               "       sde_checkpoint validate <dir>\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const fs::path target = argv[2];

  try {
    if (command == "inspect") {
      if (fs::is_directory(target)) return surveyRunDir(target, true) ? 1 : 0;
      return inspectCheckpointFile(target);
    }
    if (command == "validate") {
      const int broken = surveyRunDir(target, false);
      if (broken != 0) {
        std::fprintf(stderr, "%d broken artifact(s) in %s\n", broken,
                     target.string().c_str());
        return 1;
      }
      std::printf("ok: manifest and all job files of %s parse cleanly\n",
                  target.string().c_str());
      return 0;
    }
  } catch (const sde::snapshot::SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
