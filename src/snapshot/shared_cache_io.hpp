// Serialization of the shared query cache's entries — the
// shared_cache.bin sidecar a fleet run keeps next to its per-job
// checkpoints (checkpoint format v4). Unlike per-engine
// checkpoints, the shared cache is already context-independent
// (structural-hash keys, name/width/value model bindings), so the
// sidecar needs no expression table and can be re-read into any run of
// the same scenario: a resumed run starts with the warm cache the
// crashed run had built.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "solver/shared_cache.hpp"

namespace sde::snapshot {

inline constexpr std::string_view kSharedCacheMagic = "SDESHC";

// The sidecar's payload: every entry of a solver::ShmQueryCache, as
// its sortedEntries() enumerates them.
using SharedCacheEntries =
    std::vector<std::pair<solver::SharedQueryKey, solver::SharedQueryResult>>;

// Writes `entries` (expected key-sorted for deterministic bytes).
void writeSharedCacheEntries(std::ostream& os,
                             const SharedCacheEntries& entries);

// Parses a sidecar stream. Throws SnapshotError on framing or version
// mismatch.
[[nodiscard]] SharedCacheEntries readSharedCacheEntries(std::istream& is);

// The sidecar's location inside a checkpoint directory.
[[nodiscard]] std::string sharedCachePath(const std::string& checkpointDir);

}  // namespace sde::snapshot
