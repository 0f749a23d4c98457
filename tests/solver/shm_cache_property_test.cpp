// Property tests of the shared query store (solver/shm_cache.hpp)
// across processes. The store holds canonical values only and the
// first writer wins (solver/shared_cache.hpp), so its central
// soundness property is *no fabrication*: anything a lookup ever
// returns, from any process, is byte-equal to a value some process
// actually inserted for exactly that key. The tests drive that with
// genuinely concurrent multi-process readers/writers over one segment,
// plus the attach()-time rejection matrix (truncated, torn, version-
// mismatched, never-initialized segments must throw ShmCacheError, the
// signal the fleet runner turns into a cold-cache degrade).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "solver/shm_cache.hpp"
#include "support/hash.hpp"

namespace sde::solver {
namespace {

std::string freshName(const char* tag) {
  return "/sde_shmtest_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

// RAII for the shm *name* (mappings clean themselves up via the cache
// destructor; the name would otherwise outlive the test run).
struct ScopedSegment {
  explicit ScopedSegment(std::string n) : name(std::move(n)) {}
  ~ScopedSegment() { ShmQueryCache::unlinkSegment(name); }
  std::string name;
};

// The canonical-entry universe: entry `i` is a pure function of `i`, so
// every process — writer, reader, verifier — derives the identical
// (key, result) pair independently. Any published entry that is NOT
// byte-equal to canonicalResult(of its key) was fabricated or torn.
SharedQueryKey canonicalKey(std::uint64_t i) {
  // Distinct keys with varying length; values don't need to be sorted
  // for the store (it treats keys as opaque hash vectors).
  SharedQueryKey key;
  const std::uint64_t len = 1 + i % 5;
  for (std::uint64_t k = 0; k < len; ++k)
    key.push_back(support::mix64(i * 131 + k + 1));
  return key;
}

SharedQueryResult canonicalResult(std::uint64_t i) {
  SharedQueryResult result;
  result.status = i % 3 == 0 ? EnumStatus::kExhausted : EnumStatus::kSat;
  if (result.status == EnumStatus::kSat) {
    const std::uint64_t bindings = 1 + i % 4;
    for (std::uint64_t b = 0; b < bindings; ++b)
      result.model.push_back(SharedBinding{
          "v" + std::to_string(i) + "_" + std::to_string(b),
          static_cast<unsigned>(4 + 4 * (b % 3)), support::mix64(i ^ b)});
  }
  return result;
}

// The byte layout of a segment, as shm_cache.cpp lays it out: a header
// of 88 bytes, then fixed-size slots whose first two words are the
// publication state (0 until published) and the claim digest (0 free).
constexpr std::size_t kHeaderBytes = 88;
constexpr std::size_t kSlotStateOffset = 0;
constexpr std::size_t kSlotDigestOffset = 8;

// A key's claim digest; its home slot is digest % capacity (keyDigest in
// shm_cache.cpp).
std::uint64_t claimDigest(const SharedQueryKey& key) {
  support::Hasher h;
  for (const std::uint64_t v : key) h.u64(v);
  const std::uint64_t digest = h.digest();
  return digest == 0 ? 1 : digest;
}

TEST(ShmCachePropertyTest, InsertLookupRoundtripAndFirstWriterWins) {
  const ScopedSegment seg(freshName("roundtrip"));
  auto cache = ShmQueryCache::create(seg.name);

  for (std::uint64_t i = 0; i < 200; ++i)
    cache->insert(canonicalKey(i), canonicalResult(i));
  EXPECT_EQ(cache->entries(), 200u);

  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto hit = cache->lookup(canonicalKey(i));
    ASSERT_TRUE(hit.has_value()) << "entry " << i;
    EXPECT_EQ(*hit, canonicalResult(i)) << "entry " << i;
  }

  // First writer wins: a conflicting (contract-violating) second insert
  // for an existing key must be ignored, not overwrite.
  SharedQueryResult conflicting = canonicalResult(7);
  conflicting.model.push_back(SharedBinding{"intruder", 8, 0xdeadbeef});
  cache->insert(canonicalKey(7), conflicting);
  EXPECT_EQ(*cache->lookup(canonicalKey(7)), canonicalResult(7));
  EXPECT_EQ(cache->entries(), 200u);
}

TEST(ShmCachePropertyTest, OversizeEntriesAreDroppedNotTruncated) {
  const ScopedSegment seg(freshName("oversize"));
  ShmCacheConfig config;
  config.maxConjuncts = 4;
  config.maxBindings = 2;
  config.nameBytes = 8;
  auto cache = ShmQueryCache::create(seg.name, config);

  const auto expectDropped = [&](const SharedQueryKey& key,
                                 const SharedQueryResult& result) {
    const std::uint64_t before = cache->dropped();
    cache->insert(key, result);
    EXPECT_EQ(cache->dropped(), before + 1);
    EXPECT_FALSE(cache->lookup(key).has_value());
  };

  // Too many conjuncts.
  expectDropped(SharedQueryKey{1, 2, 3, 4, 5}, SharedQueryResult{});
  // Too many bindings.
  SharedQueryResult fat;
  fat.status = EnumStatus::kSat;
  fat.model = {SharedBinding{"a", 4, 1}, SharedBinding{"b", 4, 2},
               SharedBinding{"c", 4, 3}};
  expectDropped(SharedQueryKey{9}, fat);
  // Name that cannot be NUL-terminated within nameBytes.
  SharedQueryResult longName;
  longName.status = EnumStatus::kSat;
  longName.model = {SharedBinding{"far_too_long_a_name", 4, 1}};
  expectDropped(SharedQueryKey{10}, longName);

  EXPECT_EQ(cache->entries(), 0u);
}

// The central concurrency property, with real processes: several
// children hammer one segment — each inserts a (deterministically
// overlapping) slice of the canonical universe while looking up the
// whole of it — and every value ANY process observes must be canonical.
// A child that sees a fabricated/torn value exits nonzero.
TEST(ShmCachePropertyTest, MultiProcessReadersWritersNeverFabricate) {
  constexpr std::uint64_t kUniverse = 300;
  constexpr int kChildren = 4;
  const ScopedSegment seg(freshName("mp"));
  auto cache = ShmQueryCache::create(seg.name);

  std::vector<pid_t> children;
  for (int c = 0; c < kChildren; ++c) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1) << "fork failed";
    if (pid == 0) {
      // Child: attach by name (exercising the cross-process path, not
      // the inherited mapping), write an interleaved slice, read
      // everything, verify canonicality. _exit keeps gtest machinery
      // out of the forked copy.
      try {
        auto mine = ShmQueryCache::attach(seg.name);
        for (std::uint64_t i = static_cast<std::uint64_t>(c);
             i < kUniverse; i += 2)  // slices overlap across children
          mine->insert(canonicalKey(i), canonicalResult(i));
        for (std::uint64_t i = 0; i < kUniverse; ++i) {
          const auto hit = mine->lookup(canonicalKey(i));
          if (hit && *hit != canonicalResult(i)) _exit(3);
        }
      } catch (...) {
        _exit(4);
      }
      _exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "child observed a fabricated or torn value";
  }

  // Parent verification over the whole table: every published entry is
  // canonical, every canonical entry (the slices covered all of them)
  // is present, and counters are coherent.
  std::map<SharedQueryKey, SharedQueryResult> canon;
  for (std::uint64_t i = 0; i < kUniverse; ++i)
    canon.emplace(canonicalKey(i), canonicalResult(i));
  const auto entries = cache->sortedEntries();
  EXPECT_EQ(entries.size(), kUniverse);
  EXPECT_EQ(cache->entries(), kUniverse);
  for (const auto& [key, result] : entries) {
    const auto want = canon.find(key);
    ASSERT_NE(want, canon.end()) << "store invented a key";
    EXPECT_EQ(result, want->second);
  }
}

// The state a killed writer leaves behind (and, for an instant, every
// writer mid-insert): a slot claimed for key K but never published.
// Planted deterministically here, since the multi-process test above
// only meets it when the timing allows. A second writer of K must not
// publish K into another slot (that was the duplicate-key bug), and a
// key whose probe chain crosses the slot must still be stored.
TEST(ShmCachePropertyTest, UnpublishedClaimDropsItsKeyAndBlocksNoOther) {
  const ScopedSegment seg(freshName("claimed"));
  ShmCacheConfig config;
  config.maxConjuncts = 8;
  config.maxBindings = 4;
  config.nameBytes = 16;
  // Fixed slot fields, key hashes, then bindings (width, pad, value,
  // name).
  const std::size_t slotBytes = 32 + 8 * 8 + 4 * (16 + 16);
  constexpr std::uint64_t kSlots = 16;
  config.bytes = kHeaderBytes + kSlots * slotBytes;
  auto cache = ShmQueryCache::create(seg.name, config);
  ASSERT_EQ(cache->capacitySlots(), kSlots);

  const int fd = ::shm_open(seg.name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  void* base = ::mmap(nullptr, config.bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  ::close(fd);
  ASSERT_NE(base, MAP_FAILED);
  const auto wordAt = [&](std::uint64_t slot, std::size_t offset) {
    return static_cast<char*>(base) + kHeaderBytes + slot * slotBytes + offset;
  };
  const auto readWord = [&](std::uint64_t slot, std::size_t offset) {
    std::uint64_t value = 0;
    std::memcpy(&value, wordAt(slot, offset), sizeof(value));
    return value;
  };

  // K, and another key L whose home slot is K's, so L's probe chain
  // starts at the planted slot.
  const SharedQueryKey k = canonicalKey(0);
  const std::uint64_t plantedDigest = claimDigest(k);
  const std::uint64_t home = plantedDigest % kSlots;
  std::uint64_t l = 1;
  while (l < 1000 && claimDigest(canonicalKey(l)) % kSlots != home) ++l;
  ASSERT_LT(l, 1000u) << "no key shares K's home slot";

  std::memcpy(wordAt(home, kSlotDigestOffset), &plantedDigest,
              sizeof(plantedDigest));

  cache->insert(k, canonicalResult(0));
  EXPECT_EQ(cache->entries(), 0u);
  EXPECT_TRUE(cache->sortedEntries().empty());
  EXPECT_FALSE(cache->lookup(k).has_value());
  EXPECT_EQ(readWord(home, kSlotStateOffset), 0u) << "claim was published";

  cache->insert(canonicalKey(l), canonicalResult(l));
  EXPECT_EQ(cache->entries(), 1u);
  const auto hit = cache->lookup(canonicalKey(l));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, canonicalResult(l));
  // L went to the next slot of its chain, past the unpublished claim.
  const std::uint64_t next = (home + 1) % kSlots;
  EXPECT_EQ(readWord(next, kSlotDigestOffset), claimDigest(canonicalKey(l)));
  EXPECT_NE(readWord(next, kSlotStateOffset), 0u);
  const auto entries = cache->sortedEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, canonicalKey(l));
  EXPECT_FALSE(cache->lookup(k).has_value());

  ::munmap(base, config.bytes);
}

TEST(ShmCacheRejectionTest, MissingSegment) {
  EXPECT_FALSE(ShmQueryCache::segmentExists("/sde_shmtest_never_created"));
  EXPECT_THROW((void)ShmQueryCache::attach("/sde_shmtest_never_created"),
               ShmCacheError);
}

TEST(ShmCacheRejectionTest, TruncatedBelowHeader) {
  const ScopedSegment seg(freshName("tiny"));
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 16), 0);
  ::close(fd);
  EXPECT_TRUE(ShmQueryCache::segmentExists(seg.name));
  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

TEST(ShmCacheRejectionTest, ForeignBytesAreNotACache) {
  const ScopedSegment seg(freshName("foreign"));
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 4096), 0);
  void* base = ::mmap(nullptr, 4096, PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  std::memcpy(base, "GARBAGEGARBAGE", 14);
  ::munmap(base, 4096);
  ::close(fd);
  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

TEST(ShmCacheRejectionTest, LayoutVersionMismatch) {
  const ScopedSegment seg(freshName("version"));
  { auto cache = ShmQueryCache::create(seg.name); }

  // Poke the version field (a u32 right after the 8-byte magic) to a
  // future value, and to version 1 (slots claimed on the state word,
  // so its writers and this build's would publish one key twice): a
  // valid segment of a DIFFERENT build must be refused, never
  // reinterpreted.
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  void* base = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(base, MAP_FAILED);
  for (const std::uint32_t bogus : {999u, 1u}) {
    std::memcpy(static_cast<char*>(base) + 8, &bogus, sizeof(bogus));
    EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError)
        << "version " << bogus;
  }
  ::munmap(base, 4096);
  ::close(fd);
}

TEST(ShmCacheRejectionTest, TornGeometryAfterTruncation) {
  const ScopedSegment seg(freshName("torn"));
  { auto cache = ShmQueryCache::create(seg.name); }

  // Shrink the file under the advertised geometry: the header survives
  // but the table no longer fits — attach must refuse (probing the lost
  // tail would SIGBUS).
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 8192), 0);
  ::close(fd);
  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

TEST(ShmCacheRejectionTest, NeverInitializedCreatorCrash) {
  const ScopedSegment seg(freshName("unready"));
  // Simulate a creator killed between ftruncate and the ready marker: a
  // right-sized, all-zero segment. Magic check fails first — the
  // outcome is the same ShmCacheError degrade path.
  const int fd = ::shm_open(seg.name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, 1 << 20), 0);
  ::close(fd);
  EXPECT_THROW((void)ShmQueryCache::attach(seg.name), ShmCacheError);
}

}  // namespace
}  // namespace sde::solver
