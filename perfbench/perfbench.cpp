// The SDE benchmark program. One process runs ONE round of one workload
// and prints one JSON line: whether the outputs were correct, how many
// operations it attempted and how many failed, the round's metrics and
// a list of problems. run.py (next to this file) builds the binary,
// repeats rounds for the requested time and aggregates them.
//
// Usage:
//   perfbench round   --workload NAME --seed N --trace 0|1 --workdir DIR
//                     [--smoke]
//   perfbench explore --workload NAME [--smoke]
//   perfbench check   --workdir DIR [--smoke]
//   perfbench tamper
//
// Every layer is timed from outside, around the calls into it; the
// benchmark adds no spans to the program. A traced round (--trace 1)
// also attaches the engine's own obs::PhaseProfiler through
// Engine::setProfiler. README.md lists the workloads, the metrics, and
// which end-to-end metric each per-layer metric should move.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "sde/explode.hpp"
#include "sde/fleet.hpp"
#include "sde/parallel.hpp"
#include "snapshot/manifest.hpp"
#include "trace/scenario.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sde;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupRepeats = 201;    // setup_s is their median
constexpr std::size_t kReplays = 16;          // sampled test-case replays
constexpr std::size_t kPartitionVariables = 3;  // 2^3 = 8 partition jobs
constexpr unsigned kFleetProcesses = 3;
// suspend_s and resume_s are medians over at least three suspends and
// restores, repeated until each kind has taken a few seconds: the speed
// of a shared host drifts from one second to the next.
constexpr std::size_t kRoundTrips = 3;
constexpr double kRoundTripSeconds = 4;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Median times of the `timed` steps, run in turn at least kRoundTrips
// times and for at least `seconds`; `untimed` runs before each turn, off
// the clock. Steps taken in turn share the drift of the host's speed.
template <typename Untimed, typename... Timed>
std::array<double, sizeof...(Timed)> medianRepeatSeconds(double seconds,
                                                         Untimed&& untimed,
                                                         Timed&&... timed) {
  std::array<std::vector<double>, sizeof...(Timed)> times;
  const auto first = Clock::now();
  while (times[0].size() < kRoundTrips || secondsSince(first) < seconds) {
    untimed();
    std::size_t step = 0;
    const auto time = [&](auto& body) {
      const auto start = Clock::now();
      body();
      times[step++].push_back(secondsSince(start));
    };
    (time(timed), ...);
  }
  std::array<double, sizeof...(Timed)> medians{};
  for (std::size_t i = 0; i < medians.size(); ++i)
    medians[i] = median(times[i]);
  return medians;
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0; }

// High-water resident set of this process (RUSAGE_SELF) or of its
// largest reaped child (RUSAGE_CHILDREN); ru_maxrss is in KiB on Linux.
std::uint64_t peakRssBytes(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

std::string jsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double value) {
  if (!(value == value) || value > 1e300 || value < -1e300) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// The round's outcome. An operation that did not run to its end (a cap
// fired, an exception, a dead worker) is failed; an operation that ran
// to its end but produced a result the method forbids makes the round
// incorrect.
class Report {
 public:
  void operation(bool completed, const std::string& what) {
    ++attempted_;
    if (!completed) {
      ++failed_;
      problems_.push_back("failed: " + what);
    }
  }
  void expect(bool holds, const std::string& what) {
    if (!holds) {
      correct_ = false;
      problems_.push_back("wrong: " + what);
    }
  }
  void number(const std::string& name, double value) {
    values_[name] = jsonNumber(value);
  }
  void count(const std::string& name, std::uint64_t value) {
    values_[name] = std::to_string(value);
  }

  [[nodiscard]] bool ok() const { return correct_ && failed_ == 0; }
  [[nodiscard]] std::string json() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : values_) {
      out += (first ? "" : ", ") + jsonString(name) + ": " + value;
      first = false;
    }
    out += "}, \"problems\": [";
    for (std::size_t i = 0; i < problems_.size(); ++i)
      out += (i == 0 ? "" : ", ") + jsonString(problems_[i]);
    return out + "]}";
  }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::string> values_;
  std::vector<std::string> problems_;
};

// --- Workloads --------------------------------------------------------------

struct Workload {
  trace::CollectScenarioConfig config;
  bool fleet = false;
};

// The paper's grid collect scenario (§IV-A: symbolic drops on the data
// path and its neighbours, one drop per node) with no resource cap: a
// cap that fires would end a run early, so none is set. --smoke shrinks
// every grid to 5x5 and keeps everything else.
std::optional<Workload> workloadNamed(std::string_view name, bool smoke) {
  Workload workload;
  trace::CollectScenarioConfig& config = workload.config;
  std::uint32_t side = 0;
  if (name == "fig10-7x7-sds") {
    side = 7;
    config.mapper = MapperKind::kSds;
    config.simulationTime = 10000;
  } else if (name == "table1-10x10-cow") {
    side = 10;
    config.mapper = MapperKind::kCow;
    config.simulationTime = 5000;
  } else if (name == "fleet-7x7-testcases") {
    side = 7;
    config.mapper = MapperKind::kSds;
    config.simulationTime = 4000;
    workload.fleet = true;
  } else {
    return std::nullopt;
  }
  config.gridWidth = config.gridHeight = smoke ? 5 : side;
  return workload;
}

// --- Layer probes -----------------------------------------------------------

// The Figure-10 sampler (trace::MetricsRecorder), timed around each call.
// Holds `this` in the installed closure: attach once, do not move.
class TimedSampler {
 public:
  TimedSampler() = default;
  TimedSampler(const TimedSampler&) = delete;
  TimedSampler& operator=(const TimedSampler&) = delete;

  void attach(Engine& engine) {
    engine.setSampler([this, inner = recorder_.sampler()](const Engine& e) {
      const auto start = Clock::now();
      inner(e);
      seconds_ += secondsSince(start);
    });
  }
  [[nodiscard]] double seconds() const { return seconds_; }
  [[nodiscard]] const trace::MetricsRecorder& recorder() const {
    return recorder_;
  }

 private:
  trace::MetricsRecorder recorder_;
  double seconds_ = 0;
};

// setup_s: CollectScenario construction plus Engine::run(0), which boots
// the network. Repeated; the median is reported and the last booted
// scenario is handed back for the measured run.
double timedSetup(const trace::CollectScenarioConfig& config, Report& report,
                  std::unique_ptr<trace::CollectScenario>& booted) {
  std::vector<double> times;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    booted.reset();
    const auto start = Clock::now();
    auto scenario = std::make_unique<trace::CollectScenario>(config);
    const RunOutcome outcome = scenario->engine().run(0);
    times.push_back(secondsSince(start));
    report.expect(outcome == RunOutcome::kCompleted, "boot did not complete");
    booted = std::move(scenario);
  }
  return median(times);
}

// Everything a restored engine must reproduce exactly.
struct EngineFacts {
  std::uint64_t states = 0;
  std::uint64_t events = 0;
  std::uint64_t groups = 0;
  std::uint64_t scenarios = 0;
  std::uint64_t memoryBytes = 0;
  std::map<std::string, std::uint64_t> stats;
  std::map<std::string, std::uint64_t> interpStats;
  std::map<std::string, std::uint64_t> solverStats;
};

EngineFacts factsOf(const Engine& engine, std::uint64_t memoryBytes) {
  EngineFacts facts;
  facts.states = engine.numStates();
  facts.events = engine.eventsProcessed();
  facts.groups = engine.mapper().numGroups();
  facts.scenarios = countScenarios(engine.mapper());
  facts.memoryBytes = memoryBytes;
  facts.stats = engine.stats().all();
  facts.interpStats = engine.interpStats().all();
  facts.solverStats = engine.solverStats().all();
  return facts;
}

std::string mapDifference(const std::map<std::string, std::uint64_t>& a,
                          const std::map<std::string, std::uint64_t>& b) {
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end()) return name + " missing after restore";
    if (it->second != value)
      return name + " " + std::to_string(value) + " -> " +
             std::to_string(it->second);
  }
  for (const auto& [name, value] : b)
    if (a.find(name) == a.end()) return name + " appeared after restore";
  return {};
}

// Empty when `after` equals `before` in every fact; else the first
// difference.
std::string factDifference(const EngineFacts& before,
                           const EngineFacts& after) {
  const auto scalar = [](const char* name, std::uint64_t a, std::uint64_t b) {
    return a == b ? std::string()
                  : std::string(name) + " " + std::to_string(a) + " -> " +
                        std::to_string(b);
  };
  for (std::string diff :
       {scalar("states", before.states, after.states),
        scalar("events", before.events, after.events),
        scalar("groups", before.groups, after.groups),
        scalar("countScenarios", before.scenarios, after.scenarios),
        scalar("simulatedMemoryBytes", before.memoryBytes, after.memoryBytes),
        mapDifference(before.stats, after.stats),
        mapDifference(before.interpStats, after.interpStats),
        mapDifference(before.solverStats, after.solverStats)})
    if (!diff.empty()) return diff;
  return {};
}

// A fresh engine of the scenario with the partition job's decisions
// forced (none for the unpartitioned run, PartitionJob{}).
std::unique_ptr<Engine> jobEngine(const EngineFactory& factory,
                                  const PartitionJob& job) {
  std::unique_ptr<Engine> engine = factory(job);
  engine->setDecisionFilter(std::unordered_map<std::string, bool>(
      job.forced.begin(), job.forced.end()));
  return engine;
}

// The in-memory target of a suspend. rewind() keeps the storage, so a
// repeated suspend measures the serialization, not the growth of a
// fresh buffer (a suspend to a file, the real use, grows none either).
class CheckpointBuffer : public std::streambuf {
 public:
  void rewind() { setp(storage_.data(), storage_.data() + storage_.size()); }
  void release() {
    std::vector<char>().swap(storage_);
    setp(nullptr, nullptr);
  }
  [[nodiscard]] std::string_view bytes() const {
    return {pbase(), static_cast<std::size_t>(pptr() - pbase())};
  }

 protected:
  int_type overflow(int_type c) override {
    std::size_t used = static_cast<std::size_t>(pptr() - pbase());
    storage_.resize(std::max<std::size_t>(std::size_t{1} << 16,
                                          storage_.size() * 2));
    setp(storage_.data(), storage_.data() + storage_.size());
    while (used > 0) {  // pbump takes an int
      const int step = static_cast<int>(
          std::min<std::size_t>(used, std::numeric_limits<int>::max()));
      pbump(step);
      used -= static_cast<std::size_t>(step);
    }
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  std::vector<char> storage_;
};

void suspendInto(const Engine& engine, CheckpointBuffer& buffer) {
  buffer.rewind();
  std::ostream out(&buffer);
  engine.checkpoint(out);
  if (!out) throw std::runtime_error("checkpoint stream failed");
}

// Reads checkpoint bytes in place: restores never copy them.
class ReadBuffer : public std::streambuf {
 public:
  explicit ReadBuffer(std::string_view bytes) {
    char* begin = const_cast<char*>(bytes.data());  // the get area only
    setg(begin, begin, begin + bytes.size());        // is ever read
  }
};

// A fresh engine of the scenario plus Engine::restore. Throws
// snapshot::SnapshotError on a checkpoint the engine rejects.
std::unique_ptr<Engine> resume(const EngineFactory& factory,
                               const PartitionJob& job,
                               std::string_view bytes) {
  std::unique_ptr<Engine> engine = jobEngine(factory, job);
  ReadBuffer buffer(bytes);
  std::istream in(&buffer);
  engine->restore(in);
  return engine;
}

// suspend_s: Engine::checkpoint into memory, repeated; the median is
// reported and the last checkpoint stays in `buffer`.
void timedSuspend(const Engine& engine, CheckpointBuffer& buffer,
                  Report& report) {
  const auto [seconds] = medianRepeatSeconds(
      kRoundTripSeconds, [] {}, [&] { suspendInto(engine, buffer); });
  report.number("suspend_s", seconds);
  report.count("snapshot.checkpoint_bytes", buffer.bytes().size());
}

// resume_s: a fresh engine plus Engine::restore, repeated; the median is
// reported and the last restored engine returned.
std::unique_ptr<Engine> timedResume(const EngineFactory& factory,
                                    const PartitionJob& job,
                                    std::string_view bytes, Report& report) {
  std::unique_ptr<Engine> restored;
  const auto [seconds] = medianRepeatSeconds(
      kRoundTripSeconds,
      [&] { restored.reset(); },  // never hold two populations
      [&] { restored = resume(factory, job, bytes); });
  report.number("resume_s", seconds);
  return restored;
}

// The restored engine continues to the horizon it had reached (no event
// is left) so that it recomputes engine.peak_memory_bytes, the one
// counter a checkpoint deliberately drops; then every fact must match.
std::string roundTripDifference(Engine& restored, std::uint64_t horizon,
                                const EngineFacts& before) {
  const RunOutcome outcome = restored.run(horizon);
  if (outcome != RunOutcome::kCompleted)
    return "restored run ended " + std::string(runOutcomeName(outcome));
  return factDifference(before,
                        factsOf(restored, restored.simulatedMemoryBytes()));
}

// The failure decisions a rendered test case assigns: every input line
// ("  n7.netdrop.0 (w1) = 1") under a "node <id>" header. nullopt if the
// text is not a rendering of one dscenario's test case.
std::optional<std::unordered_map<std::string, bool>> decisionsOf(
    const std::string& testcase) {
  std::unordered_map<std::string, bool> decisions;
  std::istringstream in(testcase);
  std::string line;
  bool sawNode = false;
  while (std::getline(in, line)) {
    if (line.rfind("node ", 0) == 0) {
      sawNode = true;
      continue;
    }
    const std::size_t open = line.find(" (w");
    const std::size_t equals = line.rfind(") = ");
    if (!sawNode || line.rfind("  ", 0) != 0 || open == std::string::npos ||
        equals == std::string::npos || equals < open)
      return std::nullopt;
    const std::string value = line.substr(equals + 4);
    if (value != "0" && value != "1") return std::nullopt;
    if (!decisions.emplace(line.substr(2, open - 2), value == "1").second)
      return std::nullopt;
  }
  if (!sawNode) return std::nullopt;
  return decisions;
}

// Paper §II-A: a test case reproduces its path. Forcing the test case's
// decision assignment through Engine::setDecisionFilter must yield
// exactly one dscenario, rendered canonically as the test case itself.
// Empty when it does; else what went wrong. Throws only on engine
// errors.
std::string replayMismatch(const EngineFactory& factory, std::uint64_t horizon,
                           const std::string& testcase) {
  auto decisions = decisionsOf(testcase);
  if (!decisions) return "test case does not parse";
  std::unique_ptr<Engine> engine = factory(PartitionJob{});
  engine->setDecisionFilter(std::move(*decisions));
  const RunOutcome outcome = engine->run(horizon);
  if (outcome != RunOutcome::kCompleted)
    return "replay ended " + std::string(runOutcomeName(outcome));
  const auto scenarios = explodeScenarios(engine->mapper());
  if (scenarios.size() != 1)
    return "replay yields " + std::to_string(scenarios.size()) +
           " dscenarios";
  if (canonicalScenarioTestcase(engine->solver(), scenarios.front()) !=
      testcase)
    return "replayed dscenario renders a different test case";
  return {};
}

void replayAll(const EngineFactory& factory, std::uint64_t horizon,
               const std::vector<std::string>& testcases, Report& report) {
  for (std::size_t i = 0; i < testcases.size(); ++i) {
    const std::string label = "replay " + std::to_string(i);
    try {
      const std::string mismatch =
          replayMismatch(factory, horizon, testcases[i]);
      report.operation(true, label);
      report.expect(mismatch.empty(), label + ": " + mismatch);
    } catch (const std::exception& e) {
      report.operation(false, label + ": " + e.what());
    }
  }
}

// Problems of a fleet's merged test-case set: it must be sorted and
// distinct, hold no unsatisfiable rendering, and have one test case per
// owned dscenario.
std::string testcaseSetProblem(const std::vector<std::string>& testcases,
                               std::uint64_t scenariosOwned) {
  for (std::size_t i = 0; i < testcases.size(); ++i) {
    if (i > 0 && !(testcases[i - 1] < testcases[i]))
      return "test cases not distinct at " + std::to_string(i);
    if (testcases[i].rfind("<unsatisfiable", 0) == 0)
      return "unsatisfiable test case at " + std::to_string(i);
  }
  if (testcases.size() != scenariosOwned)
    return std::to_string(testcases.size()) + " test cases for " +
           std::to_string(scenariosOwned) + " owned dscenarios";
  return {};
}

// Every field of a partition job's result.
bool sameJobResult(const JobResult& a, const JobResult& b) {
  return a.jobId == b.jobId && a.outcome == b.outcome &&
         a.states == b.states && a.events == b.events &&
         a.groups == b.groups && a.memoryBytes == b.memoryBytes &&
         a.scenariosRepresented == b.scenariosRepresented &&
         a.scenariosOwned == b.scenariosOwned &&
         a.wallSeconds == b.wallSeconds &&
         a.scenarioFingerprints == b.scenarioFingerprints &&
         a.stateFingerprints == b.stateFingerprints &&
         a.testcases == b.testcases && a.stats.all() == b.stats.all();
}

// FNV-1a over the sorted-distinct test cases with a record separator:
// the "testcase digest" line of the sde_fleet CLI.
std::uint64_t testcaseDigest(const std::vector<std::string>& testcases) {
  std::uint64_t digest = 14695981039346656037ull;
  for (const std::string& testcase : testcases) {
    for (const char c : testcase) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ull;
    }
    digest *= 1099511628211ull;
  }
  return digest;
}

// Seeded dscenarios of a population: a uniform group, then a uniform
// choice for every node of it.
std::vector<std::vector<ExecutionState*>> sampleScenarios(
    const StateMapper& mapper, std::mt19937_64& rng, std::size_t count) {
  const auto groups = mapper.groupChoices();
  std::vector<std::vector<ExecutionState*>> sampled;
  if (groups.empty()) return sampled;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& group = groups[rng() % groups.size()];
    std::vector<ExecutionState*> scenario;
    for (const auto& choices : group) {
      if (choices.empty()) return {};
      scenario.push_back(choices[rng() % choices.size()]);
    }
    sampled.push_back(std::move(scenario));
  }
  return sampled;
}

// The engine, interpreter and solver registries folded into one, as
// collectJobResult does for a partition job.
support::StatsRegistry allStats(const Engine& engine) {
  support::StatsRegistry stats;
  stats.mergeFrom(engine.stats());
  stats.mergeFrom(engine.interpStats());
  stats.mergeFrom(engine.solverStats());
  return stats;
}

// Per-layer work counts, from the folded registries of a run.
void reportLayerCounts(const support::StatsRegistry& stats, Report& report) {
  const std::pair<const char*, const char*> counts[] = {
      {"sde.events", "engine.events"},
      {"sde.forks", "engine.forks_total"},
      {"sde.packets", "engine.packets"},
      {"sde.fork_copied_elements", "engine.fork_copied_elements"},
      {"sde.fork_shared_chunks", "engine.fork_shared_chunks"},
      {"map.transmissions", "map.transmissions"},
      {"map.targets_forked", "map.targets_forked"},
      {"map.bystanders_forked", "map.bystanders_forked"},
      {"map.sds.virtual_conflict_resolutions",
       "map.sds.virtual_conflict_resolutions"},
      {"map.cow.split_copy_elements", "map.cow.split_copy_elements"},
      {"vm.instructions", "vm.instructions"},
      {"vm.forks", "vm.forks"},
      {"vm.sends", "vm.sends"},
      {"solver.queries", "solver.queries"},
      {"solver.cache_hits", "solver.cache_hits"},
      {"solver.model_reuse_hits", "solver.model_reuse_hits"},
      {"solver.enum_runs", "solver.enum_runs"},
  };
  for (const auto& [metric, counter] : counts)
    report.count(metric, stats.get(counter));
  report.number("solver.enum_share",
                share(static_cast<double>(stats.get("solver.enum_runs")),
                      static_cast<double>(stats.get("solver.queries"))));
}

// phase.*: the profiler's self-time in the phases the exploration
// spends it in; phase.unattributed_s is the rest of the traced
// exploration once these phases and the sampler are taken out (the
// solver and checkpoint phases, idle while exploring, fall in it).
void reportPhases(const obs::PhaseProfile& profile, double exploreSeconds,
                  double sampleSeconds, Report& report) {
  double attributed = 0;
  for (const obs::Phase phase :
       {obs::Phase::kInterp, obs::Phase::kMapping, obs::Phase::kScheduler}) {
    const double seconds =
        static_cast<double>(
            profile.phases[static_cast<std::size_t>(phase)].nanos) /
        1e9;
    attributed += seconds;
    report.number("phase." + std::string(obs::phaseName(phase)) + "_s",
                  seconds);
  }
  report.number("phase.unattributed_s",
                exploreSeconds - attributed - sampleSeconds);
}

// One exploration, timed from outside: Engine::run with the Figure-10
// sampler attached (and, traced, the phase profiler), then
// trace::summarize.
struct Exploration {
  RunOutcome outcome = RunOutcome::kCompleted;
  trace::ScenarioResult summary;
  double exploreSeconds = 0;
  double summarizeSeconds = 0;
  double sampleSeconds = 0;
  std::uint64_t samples = 0;
  std::uint64_t lastSampleStates = 0;
};

Exploration explore(Engine& engine, std::uint64_t horizon,
                    obs::PhaseProfiler* profiler) {
  Exploration run;
  TimedSampler sampler;
  sampler.attach(engine);
  engine.setProfiler(profiler);
  auto start = Clock::now();
  run.outcome = engine.run(horizon);
  run.exploreSeconds = secondsSince(start);
  engine.setProfiler(nullptr);
  engine.setSampler(nullptr);
  start = Clock::now();
  run.summary = trace::summarize(engine, run.outcome);
  run.summarizeSeconds = secondsSince(start);
  run.sampleSeconds = sampler.seconds();
  run.samples = sampler.recorder().samples().size();
  if (!sampler.recorder().empty())
    run.lastSampleStates = sampler.recorder().last().states;
  return run;
}

// Properties every explored population must have.
void checkExploration(const Engine& engine, const Exploration& run,
                      const std::string& what, Report& report) {
  report.operation(run.outcome == RunOutcome::kCompleted,
                   what + " ended " + std::string(runOutcomeName(run.outcome)));
  engine.mapper().checkInvariants();  // aborts on a conflicting dscenario
  if (engine.mapper().name() == mapperKindName(MapperKind::kSds))
    report.expect(run.summary.duplicatesStrict.duplicateStates == 0,
                  what + ": SDS left " +
                      std::to_string(
                          run.summary.duplicatesStrict.duplicateStates) +
                      " strict duplicates");
  report.expect(run.samples > 0 && run.lastSampleStates == run.summary.states,
                what + ": the last sample does not see the final population");
}

void reportExploration(const Exploration& run, bool traced,
                       const obs::PhaseProfiler& profiler, Report& report) {
  report.number("sde.explore_s", run.exploreSeconds);
  report.number("sde.summarize_s", run.summarizeSeconds);
  report.number("trace.sample_s", run.sampleSeconds);
  report.count("trace.samples", run.samples);
  if (traced)
    reportPhases(profiler.profile(), run.exploreSeconds, run.sampleSeconds,
                 report);
}

// --- Single-engine workloads (fig10-7x7-sds, table1-10x10-cow) --------------

void singleEngineRound(const Workload& workload, std::uint64_t seed,
                       bool traced, Report& report) {
  const trace::CollectScenarioConfig& config = workload.config;
  const std::uint64_t horizon = config.simulationTime;

  std::unique_ptr<trace::CollectScenario> scenario;
  report.number("setup_s", timedSetup(config, report, scenario));
  Engine& engine = scenario->engine();

  obs::PhaseProfiler profiler;
  const Exploration run =
      explore(engine, horizon, traced ? &profiler : nullptr);
  const double runSeconds = run.exploreSeconds + run.summarizeSeconds;
  auto start = Clock::now();
  const std::uint64_t memoryBytes = engine.simulatedMemoryBytes();
  const double meterSeconds = secondsSince(start);
  report.count("peak_rss_bytes", peakRssBytes(RUSAGE_SELF));
  report.number("run_s", runSeconds);
  report.count("states", run.summary.states);
  report.count("sim_memory_bytes", run.summary.peakMemoryBytes);
  checkExploration(engine, run, "exploration", report);
  report.expect(run.summary.memoryBytes == memoryBytes,
                "two meter reads of one population differ");

  reportExploration(run, traced, profiler, report);
  report.number("sde.meter_read_s", meterSeconds);
  report.count("sde.groups", run.summary.groups);
  reportLayerCounts(allStats(engine), report);
  const EngineFacts before = factsOf(engine, memoryBytes);

  // The explored population is freed before the restores so that the
  // round never holds two.
  CheckpointBuffer checkpoint;
  timedSuspend(engine, checkpoint, report);
  scenario.reset();
  const trace::CollectScenario fresh(config);
  const EngineFactory factory = fresh.engineFactory();
  std::unique_ptr<Engine> restored;
  try {
    restored = timedResume(factory, PartitionJob{}, checkpoint.bytes(), report);
    checkpoint.release();
    const std::string diff = roundTripDifference(*restored, horizon, before);
    report.operation(true, "suspend/resume");
    report.expect(diff.empty(), "restored engine differs: " + diff);
  } catch (const std::exception& e) {
    report.operation(false, std::string("suspend/resume: ") + e.what());
    return;
  }

  // A seeded sample of the restored population, rendered and replayed.
  std::mt19937_64 rng(seed);
  std::vector<std::string> testcases;
  start = Clock::now();
  for (const auto& sampled :
       sampleScenarios(restored->mapper(), rng, kReplays))
    testcases.push_back(canonicalScenarioTestcase(restored->solver(), sampled));
  const double expandSeconds = secondsSince(start);
  report.expect(testcases.size() == kReplays, "too few dscenarios sampled");
  restored.reset();
  replayAll(factory, horizon, testcases, report);

  std::uint64_t testcaseBytes = 0;
  for (const std::string& testcase : testcases)
    testcaseBytes += testcase.size();
  report.count("testcase.count", testcases.size());
  report.count("testcase.bytes", testcaseBytes);
  report.number("testcase.expand_s", expandSeconds);
  // One job on one process, with no fleet around it: the job is the
  // exploration, the rest of run_s is overhead.
  report.count("fleet.jobs", 1);
  report.count("fleet.steals", 0);
  report.count("fleet.shm_hits", 0);
  report.count("fleet.shm_misses", 0);
  report.count("fleet.result_bytes", 0);
  report.number("fleet.critical_path_s", run.exploreSeconds);
  report.number("fleet.busy_share", share(run.exploreSeconds, runSeconds));
  report.number("fleet.overhead_s", runSeconds - run.exploreSeconds);
}

// --- Fleet workload (fleet-7x7-testcases) -----------------------------------

// The fleet's suspend_s and resume_s. At the end of a run the fleet's
// state is its jobs' results, in the form a worker writes as
// job_<id>.done and a resumed fleet loads instead of re-running the
// job. suspend_s encodes every job's result into memory
// (snapshot::writeJobResult), resume_s decodes them all again
// (snapshot::readJobResult). The two take turns for as long as an
// engine's suspends and restores take together, and their medians are
// reported.
// Throws snapshot::SnapshotError on results the codec rejects.
void timedJobResultRoundTrip(const std::vector<JobResult>& jobs,
                             Report& report) {
  std::vector<CheckpointBuffer> buffers(jobs.size());
  const auto encode = [&] {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      buffers[i].rewind();
      std::ostream out(&buffers[i]);
      snapshot::writeJobResult(out, jobs[i]);
      if (!out) throw std::runtime_error("job result stream failed");
    }
  };
  std::vector<JobResult> loaded;
  const auto decode = [&] {
    for (const CheckpointBuffer& buffer : buffers) {
      ReadBuffer bytes(buffer.bytes());
      std::istream in(&bytes);
      loaded.push_back(snapshot::readJobResult(in));
    }
  };
  const auto [encodeSeconds, decodeSeconds] = medianRepeatSeconds(
      2 * kRoundTripSeconds, [&] { loaded.clear(); }, encode, decode);
  report.number("suspend_s", encodeSeconds);
  report.number("resume_s", decodeSeconds);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    report.expect(sameJobResult(jobs[i], loaded[i]),
                  "job " + std::to_string(jobs[i].jobId) +
                      " decodes to a different result");
}

void fleetRound(const Workload& workload, std::uint64_t seed, bool traced,
                const fs::path& workdir, Report& report) {
  const trace::CollectScenarioConfig& config = workload.config;
  const std::uint64_t horizon = config.simulationTime;
  {
    std::unique_ptr<trace::CollectScenario> booted;
    report.number("setup_s", timedSetup(config, report, booted));
  }

  // run_s: launch to merged result, test cases included.
  const fs::path dir =
      workdir / ("fleet-" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  FleetConfig fleetConfig;
  fleetConfig.processes = kFleetProcesses;
  fleetConfig.collectTestcases = true;
  fleetConfig.checkpointDir = dir.string();
  FleetResult fleet;
  auto start = Clock::now();
  try {
    fleet = trace::runCollectFleet(config, fleetConfig, kPartitionVariables);
  } catch (const std::exception& e) {
    report.operation(false, std::string("fleet: ") + e.what());
    fs::remove_all(dir);
    return;
  }
  const double runSeconds = secondsSince(start);
  report.count("peak_rss_bytes", peakRssBytes(RUSAGE_CHILDREN));
  const ParallelResult& result = fleet.result;
  report.number("run_s", runSeconds);
  report.count("states", result.totalStates);
  report.count("sim_memory_bytes",
               result.stats.get("engine.peak_memory_bytes"));

  const std::size_t jobs = std::size_t{1} << kPartitionVariables;
  report.expect(result.jobs.size() == jobs,
                "fleet returned " + std::to_string(result.jobs.size()) +
                    " job results");
  for (const JobResult& job : result.jobs)
    report.operation(job.outcome == RunOutcome::kCompleted &&
                         job.jobId < fleet.executedCounts.size() &&
                         fleet.executedCounts[job.jobId] == 1,
                     "partition job " + std::to_string(job.jobId));
  report.operation(fleet.workerDeaths == 0,
                   std::to_string(fleet.workerDeaths) + " worker deaths");
  const std::string setProblem =
      testcaseSetProblem(result.testcases, result.totalScenariosOwned);
  report.expect(setProblem.empty(), setProblem);

  // The durable results: every .done file decodes to its job's result.
  std::uint64_t resultBytes = 0;
  for (const JobResult& job : result.jobs) {
    const fs::path done = snapshot::jobDonePath(dir, job.jobId);
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(done, ec);
    if (!ec) resultBytes += size;
    try {
      const JobResult stored = snapshot::readJobResultFile(done);
      report.expect(stored.testcases == job.testcases &&
                        stored.scenariosOwned == job.scenariosOwned,
                    ".done file of job " + std::to_string(job.jobId) +
                        " disagrees with the merged result");
    } catch (const std::exception& e) {
      report.expect(false, ".done file of job " + std::to_string(job.jobId) +
                               ": " + e.what());
    }
  }
  fs::remove_all(dir);

  // A monolithic in-process SDS exploration of the same scenario must
  // represent exactly the dscenarios the fleet owns.
  const trace::CollectScenario scenario(config);
  const EngineFactory factory = scenario.engineFactory();
  {
    std::unique_ptr<Engine> mono = factory(PartitionJob{});
    const Exploration run = explore(*mono, horizon, nullptr);
    checkExploration(*mono, run, "monolithic exploration", report);
    const std::uint64_t monoScenarios = countScenarios(mono->mapper());
    report.expect(monoScenarios == result.totalScenariosOwned,
                  "the monolithic run represents " +
                      std::to_string(monoScenarios) +
                      " dscenarios, the fleet owns " +
                      std::to_string(result.totalScenariosOwned));
  }

  // The partition jobs, explored again one by one in-process: the
  // exploration layer's share of the fleet's work. Traced, the phase
  // profiler is attached and collectJobResult renders each job's test
  // cases, which splits exploration from test-case expansion. The
  // largest job's engine also makes one checkpoint round trip, checked
  // but not timed.
  const PartitionPlan plan =
      planPartitions(scenario.partitionVariables(kPartitionVariables));
  std::uint32_t largest = 0;
  std::uint64_t largestStates = 0;
  for (const JobResult& job : result.jobs)
    if (job.states > largestStates) {
      largest = job.jobId;
      largestStates = job.states;
    }
  ParallelConfig collect;
  collect.horizon = horizon;
  collect.collectTestcases = true;
  obs::PhaseProfiler profiler;
  Exploration total;
  double expandSeconds = 0;
  double busySeconds = 0;
  double criticalPath = 0;
  for (const PartitionJob& job : plan.jobs) {
    const std::string label = "in-process job " + std::to_string(job.id);
    std::unique_ptr<Engine> engine = jobEngine(factory, job);
    const Exploration run =
        explore(*engine, horizon, traced ? &profiler : nullptr);
    checkExploration(*engine, run, label, report);
    const bool known = job.id < result.jobs.size();
    report.expect(known && run.summary.states == result.jobs[job.id].states,
                  label + " disagrees with the fleet on states");
    total.exploreSeconds += run.exploreSeconds;
    total.summarizeSeconds += run.summarizeSeconds;
    total.sampleSeconds += run.sampleSeconds;
    total.samples += run.samples;
    total.summary.groups += run.summary.groups;
    double jobSeconds = run.exploreSeconds;

    if (traced) {
      start = Clock::now();
      const JobResult replayed =
          collectJobResult(*engine, job, collect, run.outcome);
      const double expand = secondsSince(start);
      expandSeconds += expand;
      jobSeconds += expand;
      report.expect(
          known && replayed.testcases == result.jobs[job.id].testcases,
          label + " disagrees with the fleet on test cases");
    }
    busySeconds += jobSeconds;
    criticalPath = std::max(criticalPath, jobSeconds);

    if (job.id != largest) continue;
    start = Clock::now();
    const std::uint64_t memoryBytes = engine->simulatedMemoryBytes();
    report.number("sde.meter_read_s", secondsSince(start));
    const EngineFacts before = factsOf(*engine, memoryBytes);
    try {
      CheckpointBuffer checkpoint;
      suspendInto(*engine, checkpoint);
      report.count("snapshot.checkpoint_bytes", checkpoint.bytes().size());
      const std::unique_ptr<Engine> restored =
          resume(factory, job, checkpoint.bytes());
      const std::string diff = roundTripDifference(*restored, horizon, before);
      report.operation(true, "suspend/resume");
      report.expect(diff.empty(), "restored engine differs: " + diff);
    } catch (const std::exception& e) {
      report.operation(false, std::string("suspend/resume: ") + e.what());
    }
  }

  // A seeded sample of the fleet's test cases, for replay. The merged
  // set is freed before the job results are encoded and decoded, so
  // that the round does not hold it beside the job results, their
  // encoding and their decoded copy.
  std::mt19937_64 rng(seed);
  std::vector<std::string> sampled;
  if (!result.testcases.empty())
    for (std::size_t i = 0; i < kReplays; ++i)
      sampled.push_back(result.testcases[rng() % result.testcases.size()]);
  const std::size_t testcaseCount = result.testcases.size();
  std::uint64_t testcaseBytes = 0;
  for (const std::string& testcase : result.testcases)
    testcaseBytes += testcase.size();
  std::vector<std::string>().swap(fleet.result.testcases);

  try {
    timedJobResultRoundTrip(result.jobs, report);
    report.operation(true, "job results suspend/resume");
  } catch (const std::exception& e) {
    report.operation(false,
                     std::string("job results suspend/resume: ") + e.what());
  }
  replayAll(factory, horizon, sampled, report);

  reportExploration(total, traced, profiler, report);
  report.count("sde.groups", total.summary.groups);
  reportLayerCounts(result.stats, report);
  report.count("testcase.count", testcaseCount);
  report.count("testcase.bytes", testcaseBytes);
  report.count("fleet.jobs", result.jobs.size());
  report.count("fleet.steals", fleet.steals);
  report.count("fleet.shm_hits", fleet.shmHits);
  report.count("fleet.shm_misses", fleet.shmMisses);
  report.count("fleet.result_bytes", resultBytes);
  if (!traced) return;
  report.number("testcase.expand_s", expandSeconds);
  report.number("fleet.critical_path_s", criticalPath);
  report.number("fleet.busy_share",
                share(busySeconds, kFleetProcesses * runSeconds));
  report.number("fleet.overhead_s", runSeconds - criticalPath);
}

// --- Explore mode -----------------------------------------------------------

// The untraced exploration alone: a traced round's companion process.
// obs.trace_overhead_s compares the traced round's sde.explore_s with
// this one, both taken in a fresh process.
void exploreRound(const Workload& workload, Report& report) {
  const trace::CollectScenarioConfig& config = workload.config;
  const std::uint64_t horizon = config.simulationTime;
  double exploreSeconds = 0;
  if (workload.fleet) {
    const trace::CollectScenario scenario(config);
    const EngineFactory factory = scenario.engineFactory();
    for (const PartitionJob& job :
         planPartitions(scenario.partitionVariables(kPartitionVariables))
             .jobs) {
      std::unique_ptr<Engine> engine = jobEngine(factory, job);
      const Exploration run = explore(*engine, horizon, nullptr);
      checkExploration(*engine, run, "job " + std::to_string(job.id), report);
      exploreSeconds += run.exploreSeconds;
    }
  } else {
    trace::CollectScenario scenario(config);
    scenario.engine().run(0);
    const Exploration run = explore(scenario.engine(), horizon, nullptr);
    checkExploration(scenario.engine(), run, "exploration", report);
    exploreSeconds = run.exploreSeconds;
  }
  report.number("sde.explore_s", exploreSeconds);
}

// --- Check mode -------------------------------------------------------------

// Untimed, run once: on the fleet workload's scenario, SDS and COW must
// explore equal sets of distinct dscenario fingerprints, and the
// fleet's test-case digest must equal that of one process expanding the
// same scenario inline.
int checkMode(bool smoke, const fs::path& workdir) {
  const Workload workload = *workloadNamed("fleet-7x7-testcases", smoke);
  const std::uint64_t horizon = workload.config.simulationTime;
  Report report;

  std::vector<std::unordered_set<std::uint64_t>> prints;
  std::vector<double> mapperSeconds;
  for (const MapperKind kind : {MapperKind::kSds, MapperKind::kCow}) {
    trace::CollectScenarioConfig config = workload.config;
    config.mapper = kind;
    trace::CollectScenario scenario(config);
    const auto start = Clock::now();
    const RunOutcome outcome = scenario.engine().run(horizon);
    mapperSeconds.push_back(secondsSince(start));
    report.operation(outcome == RunOutcome::kCompleted,
                     std::string(mapperKindName(kind)) + " exploration");
    scenario.engine().mapper().checkInvariants();
    prints.push_back(scenarioFingerprints(scenario.engine().mapper()));
  }
  report.expect(prints[0] == prints[1],
                "SDS and COW explored different dscenario sets (" +
                    std::to_string(prints[0].size()) + " vs " +
                    std::to_string(prints[1].size()) + ")");
  report.count("distinct_dscenarios", prints[0].size());
  report.number("sds_explore_s", mapperSeconds[0]);
  report.number("cow_explore_s", mapperSeconds[1]);

  // One process: explore, then expand every dscenario inline.
  std::vector<std::string> inlineCases;
  double inlineSeconds = 0;
  {
    trace::CollectScenario scenario(workload.config);
    Engine& engine = scenario.engine();
    const auto start = Clock::now();
    const RunOutcome outcome = engine.run(horizon);
    std::set<std::string> cases;
    ExplosionIterator scenarios(engine.mapper());
    while (const auto members = scenarios.next())
      for (std::string& testcase : expandedScenarioTestcases(
               engine.context(), engine.solver(), *members))
        cases.insert(std::move(testcase));
    inlineSeconds = secondsSince(start);
    report.operation(outcome == RunOutcome::kCompleted, "inline exploration");
    inlineCases.assign(cases.begin(), cases.end());
  }

  const fs::path dir =
      workdir / ("check-" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  FleetConfig fleetConfig;
  fleetConfig.processes = kFleetProcesses;
  fleetConfig.collectTestcases = true;
  fleetConfig.checkpointDir = dir.string();
  const auto start = Clock::now();
  const FleetResult fleet =
      trace::runCollectFleet(workload.config, fleetConfig, kPartitionVariables);
  const double fleetSeconds = secondsSince(start);
  fs::remove_all(dir);
  report.operation(fleet.result.outcome == RunOutcome::kCompleted, "fleet");
  const std::uint64_t inlineDigest = testcaseDigest(inlineCases);
  const std::uint64_t fleetDigest = testcaseDigest(fleet.result.testcases);
  report.expect(inlineDigest == fleetDigest &&
                    inlineCases.size() == fleet.result.testcases.size(),
                "fleet and inline test-case digests differ");
  report.count("testcases", inlineCases.size());
  std::fprintf(stderr, "testcase digest: inline %016llx, fleet %016llx\n",
               static_cast<unsigned long long>(inlineDigest),
               static_cast<unsigned long long>(fleetDigest));
  report.number("inline_s", inlineSeconds);
  report.number("fleet_s", fleetSeconds);
  std::printf("%s\n", report.json().c_str());
  return report.ok() ? 0 : 1;
}

// --- Tamper mode ------------------------------------------------------------

// The checks must reject corrupted inputs, or they pass vacuously. On
// the smoke-size fleet scenario: a genuine test case replays, one with a
// decision removed or an unreachable decision added does not; a
// test-case set missing an entry or repeating one fails its check; a
// checkpoint with a flipped byte or cut in half is refused by restore or
// yields a different engine. (Flipping one decision's value is no
// corruption: it often names another valid path, which replays.)
int tamperMode() {
  const Workload workload = *workloadNamed("fleet-7x7-testcases", true);
  const std::uint64_t horizon = workload.config.simulationTime;
  trace::CollectScenario scenario(workload.config);
  const EngineFactory factory = scenario.engineFactory();
  Engine& engine = scenario.engine();
  engine.run(horizon);
  Report report;

  std::mt19937_64 rng(7);
  const auto sampled = sampleScenarios(engine.mapper(), rng, 1);
  report.expect(sampled.size() == 1, "no dscenario to sample");
  if (sampled.empty()) {
    std::printf("%s\n", report.json().c_str());
    return 1;
  }
  const std::string genuine =
      canonicalScenarioTestcase(engine.solver(), sampled.front());
  report.expect(replayMismatch(factory, horizon, genuine).empty(),
                "a genuine test case does not replay");

  // A decision line removed: the replay forks on it again. A decision
  // line added that the path never reaches: the replay cannot render it.
  std::string removed = genuine;
  const std::size_t input = removed.find("\n  ");
  report.expect(input != std::string::npos, "test case has no decision");
  if (input != std::string::npos)
    removed.erase(input + 1, removed.find('\n', input + 1) - input);
  report.expect(!replayMismatch(factory, horizon, removed).empty(),
                "a test case missing a decision replays");
  std::string added = genuine;
  added.insert(added.find('\n') + 1, "  n0.netdrop.999 (w1) = 1\n");
  report.expect(!replayMismatch(factory, horizon, added).empty(),
                "a test case with an unreachable decision replays");

  ParallelConfig collect;
  collect.horizon = horizon;
  collect.collectTestcases = true;
  const JobResult all =
      collectJobResult(engine, PartitionJob{}, collect, RunOutcome::kCompleted);
  report.expect(testcaseSetProblem(all.testcases, all.scenariosOwned).empty(),
                "the genuine test-case set fails its check");
  std::vector<std::string> missing = all.testcases;
  if (!missing.empty()) missing.pop_back();
  report.expect(!testcaseSetProblem(missing, all.scenariosOwned).empty(),
                "a test-case set missing one entry passes its check");
  std::vector<std::string> doubled = all.testcases;
  if (!doubled.empty()) doubled.push_back(doubled.back());
  report.expect(!testcaseSetProblem(doubled, all.scenariosOwned).empty(),
                "a test-case set with a repeated entry passes its check");

  const EngineFacts before = factsOf(engine, engine.simulatedMemoryBytes());
  CheckpointBuffer buffer;
  suspendInto(engine, buffer);
  const std::string checkpoint(buffer.bytes());
  const auto rejected = [&](std::string_view bytes) {
    try {
      std::unique_ptr<Engine> restored = resume(factory, PartitionJob{}, bytes);
      return !roundTripDifference(*restored, horizon, before).empty();
    } catch (const std::exception&) {
      return true;
    }
  };
  report.expect(!rejected(checkpoint), "a genuine checkpoint is rejected");
  std::string flippedByte = checkpoint;
  flippedByte[flippedByte.size() / 2] ^= 0x5a;
  report.expect(rejected(flippedByte),
                "a checkpoint with a flipped byte passes");
  report.expect(rejected(checkpoint.substr(0, checkpoint.size() / 2)),
                "a truncated checkpoint passes");

  std::printf("%s\n", report.json().c_str());
  return report.ok() ? 0 : 1;
}

// --- Command line -----------------------------------------------------------

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool smoke = false;
  fs::path workdir = ".";
};

std::optional<Options> parseOptions(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options options;
  options.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && hasValue) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && hasValue) {
      options.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && hasValue) {
      options.workdir = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parseOptions(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: perfbench round --workload NAME --seed N --trace 0|1 "
                 "--workdir DIR [--smoke]\n"
                 "       perfbench explore --workload NAME [--smoke]\n"
                 "       perfbench check --workdir DIR [--smoke]\n"
                 "       perfbench tamper\n");
    return 2;
  }
  if (options->mode == "check")
    return checkMode(options->smoke, options->workdir);
  if (options->mode == "tamper") return tamperMode();
  if (options->mode != "round" && options->mode != "explore") return 2;

  const std::optional<Workload> workload =
      workloadNamed(options->workload, options->smoke);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", options->workload.c_str());
    return 2;
  }
  Report report;
  if (options->mode == "explore")
    exploreRound(*workload, report);
  else if (workload->fleet)
    fleetRound(*workload, options->seed, options->traced, options->workdir,
               report);
  else
    singleEngineRound(*workload, options->seed, options->traced, report);
  std::printf("%s\n", report.json().c_str());
  return 0;
}
