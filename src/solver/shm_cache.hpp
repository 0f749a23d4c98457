// The shared query cache: a fixed-size POSIX shared-memory table that
// every worker of a run consults live and publishes canonical results
// into (see shared_cache.hpp for the key/value contract). One store
// serves both executors: the fleet's worker processes inherit the
// coordinator's mapping across fork(), and the thread runner's workers
// share one in-process mapping (sde/parallel.hpp).
//
// Layout: one versioned header followed by a fixed table of
// open-addressed slots, published by per-slot atomics rather than
// locks — a process-shared mutex can be leaked forever by a SIGKILLed
// holder, while a slot-claim CAS cannot wedge anybody:
//
//   * insert claims a slot by one CAS on its digest word (0 -> the key's
//     digest; digest 0 is reserved as free), writes the payload, then
//     publishes (state -> published, release store).
//   * a writer that meets a slot carrying its own digest compares the
//     full key if the slot is published (equal: first writer wins,
//     drop), and drops its insert if it is not: the same key is in
//     flight in another writer, and probing past would publish it
//     twice. Slots of other digests are probed past, published or not.
//   * a worker killed mid-write leaves its slot claimed forever. Other
//     keys probe past it, so nothing blocks and nothing is torn; its
//     own key is never cached in this segment again (every later
//     insert of it drops), which costs hits, never correctness.
//   * entries are immutable once published (first writer wins, no
//     updates, no deletes), so a lookup that sees `published` (acquire
//     load) reads a complete, final payload. A lookup ends its probe at
//     a free slot, trusts only published slots and re-checks the key.
//
// Keys are context-independent and values canonical, so exploration
// stays byte-identical with the segment attached or not. The store is
// best-effort by design — a full table or an oversize entry drops the
// insert, never the correctness.
//
// Robustness: attach() validates magic, layout version, the two-phase
// init marker and the geometry against the actual segment size before
// touching the table; any mismatch (torn, truncated, foreign, stale
// layout) throws ShmCacheError and the fleet runner degrades to a cold
// cache rather than reading garbage.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "solver/shared_cache.hpp"

namespace sde::solver {

class ShmCacheError : public std::runtime_error {
 public:
  explicit ShmCacheError(const std::string& what) : std::runtime_error(what) {}
};

struct ShmCacheConfig {
  // Total segment size; the slot count is derived from it. The default
  // comfortably holds every query of the evaluation scenarios.
  std::size_t bytes = 32u << 20;
  // Per-entry capacity. Oversize entries are simply not published
  // (best-effort store); the bounds cover every query the engine
  // generates with generous slack.
  std::uint32_t maxConjuncts = 48;
  std::uint32_t maxBindings = 32;
  std::uint32_t nameBytes = 40;  // per binding, including the NUL
};

class ShmQueryCache final {
 public:
  // Creates a fresh segment `name` (a POSIX shm name, "/sde_qc_...").
  // Fails with ShmCacheError if the name exists or the segment cannot
  // be sized. The creating process should unlinkSegment() when done.
  [[nodiscard]] static std::unique_ptr<ShmQueryCache> create(
      const std::string& name, const ShmCacheConfig& config = {});

  // Attaches to an existing segment. Throws ShmCacheError on a missing,
  // truncated, torn, version-mismatched or foreign segment — callers
  // degrade to a cold cache.
  [[nodiscard]] static std::unique_ptr<ShmQueryCache> attach(
      const std::string& name);

  // Removes the name from the shm namespace (existing mappings live on).
  // Idempotent; missing names are ignored.
  static void unlinkSegment(const std::string& name);

  // Whether a segment of this name exists at all (says nothing about
  // its validity — attach() judges that).
  [[nodiscard]] static bool segmentExists(const std::string& name);

  ~ShmQueryCache();
  ShmQueryCache(const ShmQueryCache&) = delete;
  ShmQueryCache& operator=(const ShmQueryCache&) = delete;

  // Safe to call concurrently from any process attached to the segment
  // and from any thread. A lookup returns the result by value. An
  // insert of a key that is already held (necessarily with an equal
  // value) is dropped: first writer wins.
  [[nodiscard]] std::optional<SharedQueryResult> lookup(
      const SharedQueryKey& key) const;
  void insert(const SharedQueryKey& key, SharedQueryResult result);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t capacitySlots() const;
  // Published entries, fleet-wide (header counter).
  [[nodiscard]] std::uint64_t entries() const;
  // Fleet-wide counters, aggregated in the segment header across every
  // attached process (relaxed; reporting only).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t inserts() const;
  // Inserts dropped because the table was full (probe limit) or the
  // entry exceeded the per-entry bounds.
  [[nodiscard]] std::uint64_t dropped() const;

  // Deterministic enumeration of every published entry, sorted by key —
  // feeds the durable shared_cache.bin sidecar so a resumed fleet
  // starts warm even though the segment itself died with the machine.
  [[nodiscard]] std::vector<std::pair<SharedQueryKey, SharedQueryResult>>
  sortedEntries() const;

 private:
  struct Header;
  struct Slot;

  ShmQueryCache(std::string name, int fd, void* base, std::size_t bytes);

  [[nodiscard]] Header& header() const;
  [[nodiscard]] Slot* slotAt(std::uint64_t index) const;
  [[nodiscard]] std::uint64_t slotBytes() const;
  [[nodiscard]] static std::uint64_t slotBytesFor(std::uint32_t maxConjuncts,
                                                 std::uint32_t maxBindings,
                                                 std::uint32_t nameBytes);

  std::string name_;
  int fd_ = -1;
  void* base_ = nullptr;
  std::size_t mappedBytes_ = 0;
};

}  // namespace sde::solver
