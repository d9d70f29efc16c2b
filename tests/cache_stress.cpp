// Cross-process fault-injection driver for the msoc-cache-v4 store.
//
// The supervisor mode forks N writer and M reader processes against
// one cache directory and, each iteration, SIGKILLs one random writer
// mid-flush — the exact crash the journal's torn-tail recovery exists
// for.  After every iteration it re-opens the store cold and asserts
// the crash-safety contract:
//   * every entry a SURVIVING writer recorded is present and exact;
//   * every entry present at all (including a killed writer's prefix)
//     carries the value its writer computed — never a torn or mixed
//     record;
//   * corrupt_files() stays 0: kill -9 may tear a tail (counted in
//     torn_tails()), it must never corrupt one.
//
// Usage (the ctest wrapper runs supervisor mode only):
//   cache_stress supervisor <dir> <writers> <readers> <iterations>
//   cache_stress writer     <dir> <iteration> <writer_id> <count>
//   cache_stress reader     <dir> <rounds> <writers> <count>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "msoc/plan/result_cache.hpp"

namespace {

using msoc::Cycles;
using msoc::plan::ResultCache;

constexpr const char* kDigest = "ab12cd34ef56ab78";
constexpr const char* kFingerprint = "00000000feedbead";

/// The deterministic value every checker recomputes: any stored entry
/// that disagrees was torn, duplicated, or cross-wired.
Cycles value_of(int iteration, int writer, int index) {
  return 1 + static_cast<Cycles>(iteration) * 1000000 +
         static_cast<Cycles>(writer) * 10000 + static_cast<Cycles>(index);
}

ResultCache::EntryKey key_of(int iteration, int writer, int index) {
  return ResultCache::EntryKey(
      16, 0.0, kFingerprint,
      "it" + std::to_string(iteration) + "-w" + std::to_string(writer) +
          "-i" + std::to_string(index));
}

/// One writer process: record `count` entries, flushing after every
/// one so a SIGKILL lands mid-append with high probability.
int run_writer(const std::string& dir, int iteration, int writer,
               int count) {
  ResultCache cache(dir);
  cache.open(kDigest, "stress_soc");
  for (int i = 0; i < count; ++i) {
    cache.record(kDigest, key_of(iteration, writer, i),
                 "w" + std::to_string(writer),
                 value_of(iteration, writer, i));
    cache.flush();
  }
  // Some writers compact on the way out, so kills also land inside
  // snapshot-fold + journal-reset windows.
  if ((iteration + writer) % 3 == 0) cache.compact();
  return 0;
}

/// One reader process: repeatedly open the store cold and check that
/// whatever is visible is exact and nothing reads as corrupt.
int run_reader(const std::string& dir, int rounds, int writers, int count) {
  for (int round = 0; round < rounds; ++round) {
    ResultCache cache(dir);
    cache.open(kDigest);
    for (int iteration = 0; iteration < 64; ++iteration) {
      for (int w = 0; w < writers; ++w) {
        for (int i = 0; i < count; ++i) {
          const auto hit = cache.lookup(kDigest, key_of(iteration, w, i));
          if (hit.has_value() && *hit != value_of(iteration, w, i)) {
            std::fprintf(stderr,
                         "reader: wrong value it=%d w=%d i=%d: %llu\n",
                         iteration, w, i,
                         static_cast<unsigned long long>(*hit));
            return 1;
          }
        }
      }
    }
    if (cache.corrupt_files() != 0) {
      std::fprintf(stderr, "reader: corrupt_files() == %d\n",
                   cache.corrupt_files());
      return 1;
    }
    ::usleep(1000);
  }
  return 0;
}

pid_t spawn(int (*body)(const std::string&, int, int, int),
            const std::string& dir, int a, int b, int c) {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(body(dir, a, b, c));
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  return pid;
}

/// Post-iteration cold audit; returns false (with a diagnostic) on any
/// contract violation.  `survived[it][w]` says whether writer w exited
/// cleanly in iteration it — a killed writer's entries FOR THAT
/// ITERATION may be a prefix, every other (it, w) cell must be whole.
bool audit(const std::string& dir,
           const std::vector<std::vector<bool>>& survived, int count) {
  ResultCache cache(dir);
  cache.open(kDigest);
  if (cache.corrupt_files() != 0) {
    std::fprintf(stderr, "audit: corrupt_files() == %d\n",
                 cache.corrupt_files());
    return false;
  }
  for (std::size_t it = 0; it < survived.size(); ++it) {
    for (std::size_t w = 0; w < survived[it].size(); ++w) {
      int present = 0;
      for (int i = 0; i < count; ++i) {
        const auto hit = cache.lookup(
            kDigest, key_of(static_cast<int>(it), static_cast<int>(w), i));
        if (!hit.has_value()) continue;
        ++present;
        if (*hit !=
            value_of(static_cast<int>(it), static_cast<int>(w), i)) {
          std::fprintf(stderr, "audit: wrong value it=%zu w=%zu i=%d\n",
                       it, w, i);
          return false;
        }
      }
      if (survived[it][w] && present != count) {
        std::fprintf(stderr, "audit: it=%zu w=%zu has %d/%d entries\n", it,
                     w, present, count);
        return false;
      }
    }
  }
  return true;
}

int run_supervisor(const std::string& dir, int writers, int readers,
                   int iterations) {
  std::filesystem::remove_all(dir);
  const int count = 40;  // entries (= flushes) per writer per iteration
  std::mt19937 rng(12345);
  long long kills = 0;
  std::vector<std::vector<bool>> survived;
  for (int iteration = 0; iteration < iterations; ++iteration) {
    survived.emplace_back(static_cast<std::size_t>(writers), true);
    std::vector<pid_t> writer_pids;
    for (int w = 0; w < writers; ++w) {
      writer_pids.push_back(spawn(run_writer, dir, iteration, w, count));
    }
    std::vector<pid_t> reader_pids;
    for (int r = 0; r < readers; ++r) {
      reader_pids.push_back(spawn(run_reader, dir, 3, writers, count));
    }
    // Give the victim a moment to get into its record/flush loop, then
    // kill it cold.  Whether it dies mid-append, mid-fsync, or
    // mid-compaction depends on scheduling — which is the point.
    const int victim =
        std::uniform_int_distribution<int>(0, writers - 1)(rng);
    ::usleep(std::uniform_int_distribution<int>(500, 8000)(rng));
    ::kill(writer_pids[static_cast<std::size_t>(victim)], SIGKILL);
    for (int w = 0; w < writers; ++w) {
      int status = 0;
      ::waitpid(writer_pids[static_cast<std::size_t>(w)], &status, 0);
      if (WIFSIGNALED(status)) {
        survived.back()[static_cast<std::size_t>(w)] = false;
        ++kills;
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "supervisor: writer %d failed\n", w);
        return 1;
      }
    }
    for (const pid_t pid : reader_pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "supervisor: reader failed\n");
        return 1;
      }
    }
    if (!audit(dir, survived, count)) return 1;
    // Heal the store between iterations half the time, so later
    // iterations also exercise append-after-recovery.
    if (iteration % 2 == 1) {
      ResultCache cache(dir);
      cache.open(kDigest);
      (void)cache.compact();
      if (!audit(dir, survived, count)) return 1;
    }
  }
  std::printf("cache_stress: ok (%d iterations, %lld writers killed)\n",
              iterations, kills);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 6 && std::strcmp(argv[1], "supervisor") == 0) {
    return run_supervisor(argv[2], std::atoi(argv[3]), std::atoi(argv[4]),
                          std::atoi(argv[5]));
  }
  if (argc >= 6 && std::strcmp(argv[1], "writer") == 0) {
    return run_writer(argv[2], std::atoi(argv[3]), std::atoi(argv[4]),
                      std::atoi(argv[5]));
  }
  if (argc >= 6 && std::strcmp(argv[1], "reader") == 0) {
    return run_reader(argv[2], std::atoi(argv[3]), std::atoi(argv[4]),
                      std::atoi(argv[5]));
  }
  std::fprintf(stderr,
               "usage: %s supervisor <dir> <writers> <readers> <iters>\n",
               argv[0]);
  return 2;
}
