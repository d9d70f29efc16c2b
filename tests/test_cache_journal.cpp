// The msoc-cache-v4 store's crash-safety contract, tested from the
// journal framing up: WAL round-trips, torn-tail truncation at every
// byte offset of a record, checksum flips, replay idempotence,
// compaction equivalence across flush cadences, per-class corruption
// counting, ignored top-level stores of the retired layouts, LRU
// eviction, and the EntryKey NaN regression.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/fileio.hpp"
#include "msoc/common/journal.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/soc/delta.hpp"
#include "msoc/soc/digest.hpp"

namespace msoc::plan {
namespace {

namespace fs = std::filesystem;

/// Per-process scratch dir: gtest's TempDir is plain /tmp on Linux, so
/// concurrent suite runs (e.g. two build trees) must not share names.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("msoc_cachejournal_" + std::to_string(::getpid())) /
                       name;
  fs::remove_all(dir);
  return dir.string();
}

/// Whole-file binary read (journals contain NUL bytes).
std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Whole-file binary (over)write, parents created.
void write_bytes(const fs::path& path, const std::string& bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// --- Journal framing (msoc::scan_journal and friends). ---

TEST(Journal, HeaderAndRecordRoundTrip) {
  const std::vector<std::string> payloads = {
      "{\"op\": \"meta\"}", std::string("binary\0payload", 14), ""};
  std::string bytes = encode_journal_header(7);
  ASSERT_EQ(bytes.size(), kJournalHeaderBytes);
  // The empty payload is rejected by the scanner (length 0 is the
  // corrupt class), so only frame the first two.
  bytes += encode_journal_record(payloads[0]);
  bytes += encode_journal_record(payloads[1]);
  const JournalScan scan = scan_journal(bytes);
  EXPECT_FALSE(scan.bad_header);
  EXPECT_EQ(scan.generation, 7u);
  EXPECT_EQ(scan.tail, JournalTail::kClean);
  EXPECT_EQ(scan.valid_size, bytes.size());
  ASSERT_EQ(scan.payloads.size(), 2u);
  EXPECT_EQ(scan.payloads[0], payloads[0]);
  EXPECT_EQ(scan.payloads[1], payloads[1]);  // NUL bytes survive
}

TEST(Journal, EmptyInputIsAFreshJournal) {
  const JournalScan scan = scan_journal("");
  EXPECT_FALSE(scan.bad_header);
  EXPECT_EQ(scan.generation, 0u);
  EXPECT_EQ(scan.tail, JournalTail::kClean);
  EXPECT_TRUE(scan.payloads.empty());
}

TEST(Journal, ShortOrWrongMagicHeaderIsBad) {
  EXPECT_TRUE(scan_journal("MSOC").bad_header);  // shorter than 16
  std::string wrong = encode_journal_header(0);
  wrong[0] = 'X';
  const JournalScan scan = scan_journal(wrong);
  EXPECT_TRUE(scan.bad_header);
  EXPECT_EQ(scan.tail, JournalTail::kCorrupt);
}

TEST(Journal, TornTailAtEveryByteOffsetOfTheLastRecord) {
  std::string bytes = encode_journal_header(0);
  bytes += encode_journal_record("first record payload");
  bytes += encode_journal_record("second");
  const std::size_t keep = bytes.size();  // end of the surviving prefix
  bytes += encode_journal_record("the last record, torn mid-append");
  // Cutting anywhere strictly inside the last record — from its first
  // header byte to its last payload byte — must classify the tail as
  // torn and keep exactly the two whole records before it.
  for (std::size_t cut = keep + 1; cut < bytes.size(); ++cut) {
    const JournalScan scan = scan_journal(bytes.substr(0, cut));
    EXPECT_EQ(scan.tail, JournalTail::kTorn) << "cut at " << cut;
    EXPECT_EQ(scan.valid_size, keep) << "cut at " << cut;
    ASSERT_EQ(scan.payloads.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(scan.payloads[1], "second");
  }
  // Cutting exactly at a record boundary is not torn at all.
  EXPECT_EQ(scan_journal(bytes.substr(0, keep)).tail, JournalTail::kClean);
  EXPECT_EQ(scan_journal(bytes).tail, JournalTail::kClean);
  EXPECT_EQ(scan_journal(bytes).payloads.size(), 3u);
}

TEST(Journal, ChecksumFlipAndInsaneLengthAreCorrupt) {
  std::string bytes = encode_journal_header(0);
  bytes += encode_journal_record("good");
  const std::size_t keep = bytes.size();
  bytes += encode_journal_record("about to be damaged");
  // Flip one bit in the damaged record's payload: the record is still
  // COMPLETE, so this is the corrupt class, not a torn tail.
  std::string flipped = bytes;
  flipped[flipped.size() - 3] ^= 0x01;
  JournalScan scan = scan_journal(flipped);
  EXPECT_EQ(scan.tail, JournalTail::kCorrupt);
  EXPECT_EQ(scan.valid_size, keep);
  ASSERT_EQ(scan.payloads.size(), 1u);
  EXPECT_EQ(scan.payloads[0], "good");
  // A zero length field is corrupt (no record is empty)...
  std::string zeroed = bytes;
  for (std::size_t i = 0; i < 4; ++i) zeroed[keep + i] = '\0';
  scan = scan_journal(zeroed);
  EXPECT_EQ(scan.tail, JournalTail::kCorrupt);
  EXPECT_EQ(scan.valid_size, keep);
  // ...and so is a length far past the sanity bound.
  std::string huge = bytes;
  for (std::size_t i = 0; i < 4; ++i) {
    huge[keep + i] = static_cast<char>(0xff);
  }
  scan = scan_journal(huge);
  EXPECT_EQ(scan.tail, JournalTail::kCorrupt);
  EXPECT_EQ(scan.valid_size, keep);
}

TEST(Journal, ReplayIsIdempotentAndResumable) {
  std::string bytes = encode_journal_header(3);
  bytes += encode_journal_record("one");
  const std::size_t after_one = bytes.size();
  bytes += encode_journal_record("two");
  const JournalScan full_a = scan_journal(bytes);
  const JournalScan full_b = scan_journal(bytes);
  EXPECT_EQ(full_a.payloads, full_b.payloads);  // same bytes, same replay
  EXPECT_EQ(full_a.valid_size, full_b.valid_size);
  // Resuming from a previously validated offset yields only the new
  // records — the incremental-scan contract open() relies on.
  const JournalScan resumed = scan_journal(bytes, after_one);
  EXPECT_EQ(resumed.generation, 3u);
  ASSERT_EQ(resumed.payloads.size(), 1u);
  EXPECT_EQ(resumed.payloads[0], "two");
  EXPECT_EQ(resumed.valid_size, bytes.size());
  // An out-of-range resume offset falls back to a full rescan.
  EXPECT_EQ(scan_journal(bytes, bytes.size() + 99).payloads.size(), 2u);
  EXPECT_EQ(scan_journal(bytes, 3).payloads.size(), 2u);
}

// --- The cache on top of the journal. ---

/// A deterministic entry key (the fingerprint/partition strings only
/// have to be stable, not meaningful, below the frontier layer).
ResultCache::EntryKey key_of(int width, double power, int i) {
  return ResultCache::EntryKey(width, power, "00000000feedbead",
                               "part-" + std::to_string(i));
}

constexpr const char* kDigest = "ab12cd34ef56ab78";

fs::path journal_file(const std::string& dir) {
  return fs::path(dir) / "ab" / "journal.wal";
}

TEST(CacheJournal, FlushAppendsAndAFreshCacheReplays) {
  const std::string dir = fresh_dir("roundtrip");
  ResultCache writer(dir);
  writer.open(kDigest, "socname");
  for (int i = 0; i < 4; ++i) {
    writer.record(kDigest, key_of(16, 0.0, i), "lbl", 1000 + i);
  }
  writer.flush();
  EXPECT_GT(writer.journal_records(), 0);
  EXPECT_GT(writer.journal_bytes(), 0);
  EXPECT_TRUE(fs::is_regular_file(journal_file(dir)));
  // No legacy top-level store file: v4 writes journals only.
  EXPECT_FALSE(fs::exists(fs::path(dir) / (std::string(kDigest) + ".json")));

  ResultCache reader(dir);
  reader.open(kDigest);
  EXPECT_GT(reader.replayed_records(), 0);
  for (int i = 0; i < 4; ++i) {
    const auto hit = reader.lookup(kDigest, key_of(16, 0.0, i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, static_cast<Cycles>(1000 + i));
  }
  EXPECT_EQ(reader.corrupt_files(), 0);
  EXPECT_EQ(reader.torn_tails(), 0);
}

TEST(CacheJournal, SecondFlushIsAnAppendNotARewrite) {
  const std::string dir = fresh_dir("append_only");
  ResultCache cache(dir);
  cache.open(kDigest, "socname");
  cache.record(kDigest, key_of(16, 0.0, 0), "a", 100);
  cache.flush();
  const std::string first = read_bytes(journal_file(dir));
  cache.record(kDigest, key_of(16, 0.0, 1), "b", 200);
  cache.flush();
  const std::string second = read_bytes(journal_file(dir));
  ASSERT_GT(second.size(), first.size());
  EXPECT_EQ(second.substr(0, first.size()), first);  // strictly appended
}

TEST(CacheJournal, TornTailIsRecoveredAtEveryTruncationOffset) {
  const std::string dir = fresh_dir("torn");
  ResultCache writer(dir);
  writer.open(kDigest, "socname");
  writer.record(kDigest, key_of(16, 0.0, 0), "keep", 111);
  writer.flush();
  writer.record(kDigest, key_of(16, 0.0, 1), "tear", 222);
  writer.flush();
  const std::string full = read_bytes(journal_file(dir));
  // The second flush appended exactly one record; locate its start.
  const JournalScan scan = scan_journal(full);
  ASSERT_EQ(scan.tail, JournalTail::kClean);
  const std::size_t last_size =
      kJournalRecordOverhead + scan.payloads.back().size();
  const std::size_t keep = full.size() - last_size;
  for (std::size_t cut = keep + 1; cut < full.size(); ++cut) {
    write_bytes(journal_file(dir), full.substr(0, cut));
    ResultCache reader(dir);
    reader.open(kDigest);
    // The torn entry is gone, the entries before it survive, and a
    // kill -9 artifact is NOT corruption.
    EXPECT_TRUE(reader.lookup(kDigest, key_of(16, 0.0, 0)).has_value())
        << "cut at " << cut;
    EXPECT_FALSE(reader.lookup(kDigest, key_of(16, 0.0, 1)).has_value())
        << "cut at " << cut;
    EXPECT_EQ(reader.torn_tails(), 1) << "cut at " << cut;
    EXPECT_EQ(reader.corrupt_files(), 0) << "cut at " << cut;
  }
  // A flush by the next writer truncates the torn bytes and appends
  // after them — the journal heals durably.
  write_bytes(journal_file(dir), full.substr(0, keep + 1));
  ResultCache healer(dir);
  healer.open(kDigest, "socname");
  healer.record(kDigest, key_of(16, 0.0, 2), "healed", 333);
  healer.flush();
  const JournalScan healed = scan_journal(read_bytes(journal_file(dir)));
  EXPECT_EQ(healed.tail, JournalTail::kClean);
  ResultCache reader(dir);
  reader.open(kDigest);
  EXPECT_TRUE(reader.lookup(kDigest, key_of(16, 0.0, 0)).has_value());
  EXPECT_TRUE(reader.lookup(kDigest, key_of(16, 0.0, 2)).has_value());
  EXPECT_EQ(reader.corrupt_files(), 0);
}

TEST(CacheJournal, ChecksumFlipCountsCorruptOncePerShard) {
  const std::string dir = fresh_dir("flip");
  ResultCache writer(dir);
  writer.open(kDigest, "socname");
  writer.record(kDigest, key_of(16, 0.0, 0), "keep", 111);
  writer.flush();
  writer.record(kDigest, key_of(16, 0.0, 1), "flip", 222);
  writer.flush();
  std::string bytes = read_bytes(journal_file(dir));
  bytes[bytes.size() - 2] ^= 0x40;  // damage the last record's payload
  write_bytes(journal_file(dir), bytes);
  ResultCache reader(dir);
  reader.open(kDigest);
  EXPECT_TRUE(reader.lookup(kDigest, key_of(16, 0.0, 0)).has_value());
  EXPECT_FALSE(reader.lookup(kDigest, key_of(16, 0.0, 1)).has_value());
  EXPECT_EQ(reader.corrupt_files(), 1);
  EXPECT_EQ(reader.torn_tails(), 0);
  // Another digest in the SAME shard must not double-count the same
  // damaged journal.
  reader.open("ab99aa88bb77cc66");
  EXPECT_EQ(reader.corrupt_files(), 1);
}

TEST(CacheJournal, CorruptClassesAreCountedPerJournal) {
  // Class 1: unusable header (wrong magic).
  {
    const std::string dir = fresh_dir("corrupt_header");
    write_bytes(journal_file(dir), "XXXXXXXX12345678");
    ResultCache cache(dir);
    cache.open(kDigest);
    EXPECT_EQ(cache.corrupt_files(), 1);
    EXPECT_FALSE(cache.lookup(kDigest, key_of(16, 0.0, 0)).has_value());
  }
  // Class 2: checksum-valid record whose payload is not JSON.
  {
    const std::string dir = fresh_dir("corrupt_payload");
    write_bytes(journal_file(dir), encode_journal_header(0) +
                                       encode_journal_record("{not json"));
    ResultCache cache(dir);
    cache.open(kDigest);
    EXPECT_EQ(cache.corrupt_files(), 1);
  }
  // Class 3: well-formed record filed in the wrong shard directory.
  {
    const std::string dir = fresh_dir("corrupt_misfiled");
    const std::string foreign =
        "{\"op\": \"entry\", \"digest\": \"ff00ff00ff00ff00\", "
        "\"width\": 16, \"packing\": \"p\", \"partition\": \"q\", "
        "\"label\": \"l\", \"test_time\": 5}";
    write_bytes(journal_file(dir),
                encode_journal_header(0) + encode_journal_record(foreign));
    ResultCache cache(dir);
    cache.open(kDigest);
    EXPECT_EQ(cache.corrupt_files(), 1);
  }
  // Class 4: an unparseable snapshot.
  {
    const std::string dir = fresh_dir("corrupt_snapshot");
    write_bytes(fs::path(dir) / "ab" / (std::string(kDigest) + ".json"),
                "{\"schema\": \"msoc-cache-v4\", \"digest\"");
    ResultCache cache(dir);
    cache.open(kDigest);
    EXPECT_EQ(cache.corrupt_files(), 1);
  }
}

TEST(CacheJournal, ReplayIsIdempotentAcrossOpens) {
  const std::string dir = fresh_dir("idempotent");
  ResultCache writer(dir);
  writer.open(kDigest, "socname");
  writer.record(kDigest, key_of(16, 0.0, 0), "x", 123);
  writer.flush();
  ResultCache reader(dir);
  reader.open(kDigest);
  reader.open(kDigest);  // re-opening must not duplicate or drop
  const long long replayed = reader.replayed_records();
  reader.open(kDigest);
  EXPECT_EQ(reader.replayed_records(), replayed);  // nothing new to scan
  EXPECT_EQ(*reader.lookup(kDigest, key_of(16, 0.0, 0)), 123u);
}

TEST(CacheJournal, CompactionIsEquivalentAcrossFlushCadences) {
  // Same entries, three cadences: one bulk flush + explicit compact,
  // entry-at-a-time flushes + explicit compact, and entry-at-a-time
  // with a 1-byte threshold (every flush auto-compacts).  The folded
  // snapshots must match BYTE for byte.
  const std::string bulk_dir = fresh_dir("compact_bulk");
  const std::string drip_dir = fresh_dir("compact_drip");
  const std::string auto_dir = fresh_dir("compact_auto");
  const auto fill = [](ResultCache& cache, bool flush_each) {
    cache.open(kDigest, "socname");
    for (int i = 0; i < 6; ++i) {
      cache.record(kDigest, key_of(16 + 8 * (i % 2), i < 3 ? 0.0 : 250.0, i),
                   "label-" + std::to_string(i), 5000 + i);
      if (flush_each) cache.flush();
    }
    cache.flush();
  };
  ResultCache bulk(bulk_dir);
  fill(bulk, false);
  const CompactionStats bulk_stats = bulk.compact();
  EXPECT_EQ(bulk_stats.shards_compacted, 1);
  EXPECT_EQ(bulk_stats.snapshots_written, 1);
  EXPECT_GT(bulk_stats.records_folded, 0);

  ResultCache drip(drip_dir);
  fill(drip, true);
  drip.compact();

  CacheTuning eager;
  eager.compact_threshold_bytes = 1;
  ResultCache autoc(auto_dir, eager);
  fill(autoc, true);
  EXPECT_GT(autoc.compactions(), 1);  // the threshold really fired

  const auto snapshot = [](const std::string& dir) {
    return read_bytes(fs::path(dir) / "ab" / (std::string(kDigest) + ".json"));
  };
  const std::string golden = snapshot(bulk_dir);
  EXPECT_NE(golden.find("msoc-cache-v4"), std::string::npos);
  EXPECT_EQ(snapshot(drip_dir), golden);
  EXPECT_EQ(snapshot(auto_dir), golden);
  // After compaction the journal is a bare header with a bumped
  // generation, and a fresh cache reads everything from the snapshot.
  const JournalScan scan = scan_journal(read_bytes(journal_file(bulk_dir)));
  EXPECT_TRUE(scan.payloads.empty());
  EXPECT_GT(scan.generation, 0u);
  ResultCache reader(bulk_dir);
  reader.open(kDigest);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(reader
                    .lookup(kDigest, key_of(16 + 8 * (i % 2),
                                            i < 3 ? 0.0 : 250.0, i))
                    .has_value())
        << i;
  }
  EXPECT_EQ(reader.replayed_records(), 0);  // snapshot, not journal
}

// --- Retired layouts. ---

TEST(CacheJournal, TopLevelStoreIsAColdMissAndSurvivesCompaction) {
  // A single-file store at <dir>/<digest>.json predates the sharded
  // layout.  It is never read: a cold miss, not corruption, and
  // compaction leaves it byte-for-byte in place.
  const std::string dir = fresh_dir("top_level");
  const fs::path top = fs::path(dir) / (std::string(kDigest) + ".json");
  const std::string body =
      "{\"schema\": \"msoc-cache-v3\", \"digest\": \"" +
      std::string(kDigest) +
      "\", \"entries\": [{\"width\": 16, \"packing\": "
      "\"00000000feedbead\", \"partition\": \"part-0\", "
      "\"test_time\": 4242}]}";
  write_bytes(top, body);
  ResultCache cache(dir);
  cache.open(kDigest, "socname");
  EXPECT_FALSE(cache.lookup(kDigest, key_of(16, 0.0, 0)).has_value());
  EXPECT_EQ(cache.corrupt_files(), 0);
  cache.record(kDigest, key_of(16, 0.0, 1), "fresh", 100);
  const CompactionStats stats = cache.compact();
  EXPECT_EQ(stats.shards_compacted, 1);
  EXPECT_EQ(read_bytes(top), body);
  EXPECT_EQ(cache.corrupt_files(), 0);
  ResultCache reader(dir);
  reader.open(kDigest);
  EXPECT_FALSE(reader.lookup(kDigest, key_of(16, 0.0, 0)).has_value());
  EXPECT_EQ(*reader.lookup(kDigest, key_of(16, 0.0, 1)), 100u);
  EXPECT_EQ(reader.corrupt_files(), 0);
}

// --- EntryKey validation (the NaN strict-weak-ordering regression). ---

TEST(CacheEntryKey, RejectsNonFiniteAndNegativeBudgets) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN compares false under <, >, AND ==, so a NaN budget would break
  // operator<'s strict weak ordering and corrupt std::map lookups.
  EXPECT_THROW(ResultCache::EntryKey(16, nan, "f", "p"), Error);
  EXPECT_THROW(ResultCache::EntryKey(16, inf, "f", "p"), Error);
  EXPECT_THROW(ResultCache::EntryKey(16, -1.0, "f", "p"), Error);
  EXPECT_THROW(ResultCache::EntryKey(0, 0.0, "f", "p"), Error);
  EXPECT_NO_THROW(ResultCache::EntryKey(1, 0.0, "f", "p"));
  EXPECT_NO_THROW(ResultCache::EntryKey(16, 250.5, "f", "p"));
}

// --- Eviction. ---

TEST(CacheJournal, LruEvictsOnlyCleanStoresAtTheBound) {
  const std::string dir = fresh_dir("evict");
  CacheTuning tuning;
  tuning.max_open_stores = 2;
  ResultCache cache(dir, tuning);
  cache.open("aa00000000000001", "soc-a");
  cache.record("aa00000000000001", key_of(16, 0.0, 0), "a", 100);
  cache.flush();  // store aa..01 is now clean and on disk
  cache.open("bb00000000000002", "soc-b");
  EXPECT_EQ(cache.evictions(), 0);
  cache.open("cc00000000000003", "soc-c");  // third store: bound is 2
  EXPECT_EQ(cache.evictions(), 1);
  // The evicted store reads as never-opened...
  EXPECT_FALSE(
      cache.lookup("aa00000000000001", key_of(16, 0.0, 0)).has_value());
  // ...until re-opened, when the journal replays it back.
  cache.open("aa00000000000001");
  EXPECT_TRUE(
      cache.lookup("aa00000000000001", key_of(16, 0.0, 0)).has_value());
}

TEST(CacheJournal, EvictedStoresReassembleFromTheJournal) {
  // Many flushed digests through a two-store cache: most stores are
  // evicted, and their records live only in the shard journals (several
  // digests share a shard).  Re-opening each must bring back every
  // record and the inventory its meta record carries.
  const std::string dir = fresh_dir("evict_many");
  CacheTuning tuning;
  tuning.max_open_stores = 2;
  ResultCache cache(dir, tuning);
  constexpr int kSocs = 72;
  constexpr int kKeys = 5;
  std::vector<std::string> digests;
  std::vector<soc::DigestInventory> inventories;
  for (int i = 0; i < kSocs; ++i) {
    soc::SyntheticSocParams params;
    params.digital_cores = 3;
    params.analog_cores = 1;
    params.seed = 500 + static_cast<std::uint64_t>(i);
    const soc::Soc s = soc::make_synthetic_soc(params);
    digests.push_back(soc::digest_hex(s));
    inventories.push_back(soc::digest_inventory(s));
    cache.open(digests.back(), s);
    for (int k = 0; k < kKeys; ++k) {
      cache.record(digests.back(), key_of(8 + k, 0.0, i),
                   "lbl", static_cast<Cycles>(1000 * i + k + 1));
    }
    cache.flush();
  }
  EXPECT_GE(cache.evictions(), kSocs - 2);
  std::set<std::string> shards;
  for (const std::string& digest : digests) shards.insert(digest.substr(0, 2));
  EXPECT_LT(shards.size(), digests.size());  // some shards hold several
  for (int i = 0; i < kSocs; ++i) {
    cache.open(digests[static_cast<std::size_t>(i)]);
    for (int k = 0; k < kKeys; ++k) {
      const auto hit =
          cache.lookup(digests[static_cast<std::size_t>(i)],
                       key_of(8 + k, 0.0, i));
      ASSERT_TRUE(hit.has_value()) << "soc " << i << " key " << k;
      EXPECT_EQ(*hit, static_cast<Cycles>(1000 * i + k + 1));
    }
    // Keys recorded for other digests never leak into this store.
    EXPECT_FALSE(cache
                     .lookup(digests[static_cast<std::size_t>(i)],
                             key_of(8, 0.0, (i + 1) % kSocs))
                     .has_value());
    const auto inventory =
        cache.inventory(digests[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(inventory.has_value()) << "soc " << i;
    const soc::DigestInventory& want =
        inventories[static_cast<std::size_t>(i)];
    EXPECT_EQ(inventory->digital, want.digital) << "soc " << i;
    EXPECT_EQ(inventory->analog, want.analog) << "soc " << i;
    EXPECT_EQ(inventory->max_power, want.max_power) << "soc " << i;
  }
  EXPECT_EQ(cache.corrupt_files(), 0);
}

}  // namespace
}  // namespace msoc::plan
