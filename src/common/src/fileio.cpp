#include "msoc/common/fileio.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(_WIN32)
#include <process.h>
#else
#include <sys/stat.h>
#include <unistd.h>

#include "msoc/common/posix_io.hpp"
#endif

#include "msoc/common/error.hpp"

namespace msoc {

namespace fs = std::filesystem;

namespace {

long long process_id() {
#if defined(_WIN32)
  return ::_getpid();
#else
  return static_cast<long long>(::getpid());
#endif
}

#if !defined(_WIN32)

/// fsync of the temp file (when `sync`): rename durability is only as
/// good as the bytes it points at.
void fsync_file_or_throw(const fs::path& file) {
  const int fd =
      posix_io::open_retry(file.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0 || !posix_io::fsync_retry(fd)) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    throw Error("fsync failed: " + file.string() + ": " +
                std::strerror(err));
  }
  ::close(fd);
}

/// fsync of the parent directory after rename: the rename itself lives
/// in the DIRECTORY's data blocks, so until the directory is synced a
/// crash can roll the entry back to the old file — fatal for callers
/// (cache compaction) that drop the journal records a snapshot folds
/// as soon as write_file_atomic returns.
void fsync_directory_or_throw(const fs::path& dir) {
  const int fd =
      posix_io::open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0 || !posix_io::fsync_retry(fd)) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    throw Error("fsync failed for directory " + dir.string() + ": " +
                std::strerror(err));
  }
  ::close(fd);
}

#endif  // !defined(_WIN32)

}  // namespace

std::optional<std::string> read_file_if_exists(const std::string& path) {
#if defined(_WIN32)
  std::error_code ec;
  if (!fs::is_regular_file(path, ec) || ec) return std::nullopt;
  return read_file(path);
#else
  // Open FIRST, classify AFTER: a stat-then-open pair races against
  // concurrent deleters (a cache directory removed while a daemon
  // client reads it) and would throw where the contract says "absent
  // is nullopt".
  const int fd = posix_io::open_retry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT || errno == ENOTDIR) return std::nullopt;
    throw Error("cannot open " + path + ": " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("cannot stat " + path + ": " + std::strerror(err));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return std::nullopt;  // directory, FIFO, device: not a regular file
  }
  std::string content;
  content.reserve(static_cast<std::size_t>(st.st_size));
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw Error("read failed: " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    content.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return content;
#endif
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  // A directory opens fine and then reads as empty.
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    throw Error("read failed (is it a directory?): " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw Error("read failed: " + path);
  return buffer.str();
}

void write_file_atomic(const std::string& path, const std::string& content,
                       bool sync) {
  // Unique per call (pid + per-process counter), so concurrent writers
  // (two sweep processes sharing one cache dir, or two threads in one)
  // never scribble on each other's temp file; last rename wins, both
  // outcomes are whole documents.
  static std::atomic<unsigned> counter{0};
  const fs::path target(path);
  std::error_code ec;
  const fs::path dir =
      target.has_parent_path() ? target.parent_path() : fs::path(".");
  std::ostringstream name;
  name << target.filename().string() << ".tmp." << process_id() << "."
       << counter.fetch_add(1);
  const fs::path temp = dir / name.str();
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot open temp file " + temp.string());
    out << content;
    out.flush();
    if (!out) {
      fs::remove(temp, ec);
      throw Error("write failed: " + temp.string());
    }
  }
#if !defined(_WIN32)
  if (sync) {
    try {
      fsync_file_or_throw(temp);
    } catch (const Error&) {
      fs::remove(temp, ec);
      throw;
    }
  }
#else
  (void)sync;
#endif
  fs::rename(temp, target, ec);
  if (ec) {
    std::error_code cleanup;
    fs::remove(temp, cleanup);
    throw Error("cannot rename " + temp.string() + " to " + path + ": " +
                ec.message());
  }
#if !defined(_WIN32)
  // The new name is durable only once the parent directory is synced;
  // without this a crash after return can resurrect the old file even
  // though the caller saw the rename "succeed" and acted on it.
  if (sync) fsync_directory_or_throw(dir);
#endif
}

void ensure_directory(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) throw Error("cannot create directory " + path + ": " + ec.message());
  if (!fs::is_directory(path, ec) || ec) {
    throw Error(path + " exists but is not a directory");
  }
}

}  // namespace msoc
