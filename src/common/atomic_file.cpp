#include "common/atomic_file.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include "common/crc64.h"

namespace xfa {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kFrameLengthFields = 2 * sizeof(std::uint64_t);

unsigned long long current_pid() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<unsigned long long>(getpid());
#else
  return 0;
#endif
}

/// Flush + fsync; returns false on failure. On platforms without fsync the
/// flush alone has to do.
bool sync_stream(std::FILE* file) {
  if (std::fflush(file) != 0) return false;
#if defined(__unix__) || defined(__APPLE__)
  if (fsync(fileno(file)) != 0) return false;
#endif
  return true;
}

/// Best-effort directory fsync so the rename itself is durable.
void sync_directory(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

/// True when `pid` names a live process (or one we cannot probe, which is
/// treated as live: deleting a live writer's temp is the failure mode this
/// sweep exists to avoid, so all ambiguity resolves to "keep").
bool pid_alive(unsigned long long pid) {
#if defined(__unix__) || defined(__APPLE__)
  if (pid == 0 || pid > static_cast<unsigned long long>(INT32_MAX))
    return false;
  if (kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno != ESRCH;
#else
  (void)pid;
  return true;  // no liveness probe: fall back to the age bound
#endif
}

/// Parses `<base>.<pid>.<seq>.tmp`; false when the name predates the unique
/// temp scheme (those fall back to the age bound).
bool parse_temp_pid(const std::string& filename, unsigned long long& pid) {
  // filename ends with ".tmp"; walk back over "<seq>" then "<pid>".
  const std::size_t tmp_dot = filename.rfind('.');
  if (tmp_dot == std::string::npos || tmp_dot == 0 ||
      filename.substr(tmp_dot) != ".tmp")
    return false;
  const std::size_t seq_dot = filename.rfind('.', tmp_dot - 1);
  if (seq_dot == std::string::npos || seq_dot == 0 || seq_dot + 1 == tmp_dot)
    return false;
  const std::size_t pid_dot = filename.rfind('.', seq_dot - 1);
  if (pid_dot == std::string::npos || pid_dot + 1 == seq_dot) return false;
  for (std::size_t i = pid_dot + 1; i < tmp_dot; ++i)
    if (i != seq_dot && (filename[i] < '0' || filename[i] > '9')) return false;
  pid = std::strtoull(filename.c_str() + pid_dot + 1, nullptr, 10);
  return true;
}

}  // namespace

Status atomic_write_file(const std::string& path, std::string_view bytes) {
  // The temp name must be unique per writer: a shared `path + ".tmp"` lets
  // two concurrent writers interleave into one file and publish the mixture.
  // pid disambiguates processes, the atomic counter disambiguates threads.
  static std::atomic<std::uint64_t> temp_sequence{0};
  const std::string tmp = path + "." + std::to_string(current_pid()) + "." +
                          std::to_string(temp_sequence.fetch_add(1)) + ".tmp";
  std::error_code ec;
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return {StatusCode::kIoError, tmp + ": cannot open"};
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  // A partially-written artifact must never be published: on any write or
  // sync failure drop the temp file instead of renaming it into place.
  const bool synced = sync_stream(file);
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !synced || !closed) {
    fs::remove(tmp, ec);
    return {StatusCode::kIoError, tmp + ": write failed"};
  }
  fs::rename(tmp, path, ec);  // atomic publish
  if (ec) {
    fs::remove(tmp, ec);
    return {StatusCode::kIoError, path + ": rename failed"};
  }
  sync_directory(path);
  return Status::Ok();
}

Result<std::string> read_file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status{StatusCode::kNotFound, path};
  std::string bytes;
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) return Status{StatusCode::kIoError, path + ": " + ec.message()};
  bytes.resize(static_cast<std::size_t>(size));
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!is && size != 0)
    return Status{StatusCode::kIoError, path + ": short read"};
  return bytes;
}

Status write_framed_file(const std::string& path, std::string_view magic,
                         std::string_view payload) {
  std::string blob;
  blob.reserve(magic.size() + kFrameLengthFields + payload.size());
  blob.append(magic.data(), magic.size());
  const auto payload_size = static_cast<std::uint64_t>(payload.size());
  blob.append(reinterpret_cast<const char*>(&payload_size),
              sizeof(payload_size));
  const std::uint64_t crc = crc64(payload.data(), payload.size());
  blob.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  blob.append(payload.data(), payload.size());
  return atomic_write_file(path, blob);
}

Result<std::string> read_framed_payload(const std::string& path,
                                        std::string_view magic) {
  Result<std::string> bytes = read_file_bytes(path);
  if (!bytes.ok()) return bytes.status();
  const std::string& blob = *bytes;
  const std::size_t header_size = magic.size() + kFrameLengthFields;
  if (blob.size() < header_size ||
      std::memcmp(blob.data(), magic.data(), magic.size()) != 0)
    return Status{StatusCode::kCorruptArtifact, "bad or truncated header"};

  // Old format revisions fail the magic check above and heal the same way
  // every other invalid file does: the caller quarantines + regenerates.
  std::uint64_t payload_size = 0, stored_crc = 0;
  std::memcpy(&payload_size, blob.data() + magic.size(), sizeof(payload_size));
  std::memcpy(&stored_crc, blob.data() + magic.size() + sizeof(payload_size),
              sizeof(stored_crc));

  // The declared size must match the bytes actually present, which both
  // rejects truncation and caps the read at the real file size — a hostile
  // length field never drives the allocation.
  if (payload_size != blob.size() - header_size)
    return Status{StatusCode::kCorruptArtifact,
                  "payload size disagrees with file size"};
  std::string payload = blob.substr(header_size);
  if (crc64(payload.data(), payload.size()) != stored_crc)
    return Status{StatusCode::kCorruptArtifact, "payload checksum mismatch"};
  return payload;
}

void quarantine_file(const std::string& path) {
  const std::string corrupt = path + ".corrupt";
  std::error_code ec;
  fs::remove(corrupt, ec);
  fs::rename(path, corrupt, ec);
  if (ec) fs::remove(path, ec);
}

void sweep_stale_temps(const std::string& directory) {
  // A writer that crashed between open and rename leaves its unique temp
  // file behind forever. A temp is only swept once its writer is provably
  // gone: the pid embedded in the name no longer exists, or (when the name
  // does not parse, or the platform cannot probe) the file is older than a
  // bound far beyond any real store. Age alone at a small threshold is a
  // race — a live writer on a badly overloaded host can hold a temp open
  // arbitrarily long, and deleting it under the writer publishes nothing.
  constexpr auto kOrphanAge = std::chrono::hours(24);
  std::error_code ec;
  fs::directory_iterator it(directory, ec);
  if (ec) return;
  const auto now = fs::file_time_type::clock::now();
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".claim") {
      // A producer killed between publishing its artifact and releasing its
      // claim leaves a claim nobody contends again (the key is a cache hit
      // from then on). holder_alive() reaps it once its holder is dead.
      std::string artifact = p.string();
      artifact.resize(artifact.size() - std::strlen(".claim"));
      (void)ClaimFile::holder_alive(artifact);
      continue;
    }
    if (p.extension() != ".tmp") continue;
    unsigned long long pid = 0;
    if (parse_temp_pid(p.filename().string(), pid)) {
      if (!pid_alive(pid)) {
        fs::remove(p, ec);
        continue;
      }
      // Live pid: either the writer is mid-store or the pid was recycled.
      // Both cases fall through to the conservative age bound.
    }
    const auto written = fs::last_write_time(p, ec);
    if (ec) continue;
    if (now - written > kOrphanAge) fs::remove(p, ec);
  }
}

bool ClaimFile::try_acquire(const std::string& artifact_path) {
  release();
#if defined(__unix__) || defined(__APPLE__)
  const std::string path = artifact_path + ".claim";
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    // EEXIST is the one contended outcome; anything else (directory missing,
    // permissions) means claims cannot work here, and the caller must not
    // spin waiting for a holder that can never exist — proceed unclaimed.
    return errno != EEXIST;
  }
  const std::string pid = std::to_string(current_pid());
  // A failed pid write leaves an empty claim; holder_alive() treats that as
  // a fresh holder and ages it out, so no error handling is needed beyond
  // not lying about ownership.
  (void)!::write(fd, pid.data(), pid.size());
  ::close(fd);
  path_ = path;
  return true;
#else
  // No exclusive-create primitive: skip deduplication, always produce.
  (void)artifact_path;
  return true;
#endif
}

void ClaimFile::release() {
  if (path_.empty()) return;
  std::error_code ec;
  fs::remove(path_, ec);
  path_.clear();
}

bool ClaimFile::holder_alive(const std::string& artifact_path) {
  const std::string path = artifact_path + ".claim";
  const Result<std::string> bytes = read_file_bytes(path);
  if (!bytes.ok()) return false;  // claim gone (or vanished mid-read)
  unsigned long long pid = 0;
  bool parsed = !bytes->empty();
  for (const char ch : *bytes) {
    if (ch < '0' || ch > '9') {
      parsed = false;
      break;
    }
    pid = pid * 10 + static_cast<unsigned long long>(ch - '0');
  }
  if (parsed) {
    if (pid_alive(pid)) return true;
    std::error_code ec;
    fs::remove(path, ec);  // stale claim: holder is provably dead
    return false;
  }
  // Unparseable (e.g. the holder crashed between create and write): trust it
  // briefly — the create-to-write window is microseconds — then age it out
  // so a crashed holder cannot wedge every later producer's wait budget.
  std::error_code ec;
  const auto written = fs::last_write_time(path, ec);
  if (ec) return false;
  if (fs::file_time_type::clock::now() - written > std::chrono::minutes(1)) {
    fs::remove(path, ec);
    return false;
  }
  return true;
}

void ClaimFile::sleep_ms(int ms) {
#if defined(__unix__) || defined(__APPLE__)
  timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  nanosleep(&ts, nullptr);
#else
  (void)ms;
#endif
}

}  // namespace xfa
