// Crash-safe file publication and CRC-framed artifact I/O.
//
// Every artifact writer in the tree (trace cache, model store) funnels
// through this file — the xfa_lint `atomic-write` rule rejects raw
// std::ofstream / fopen anywhere else under src/ — so the crash-safety
// invariants live in exactly one place:
//
//   * atomic_write_file: bytes go to a per-writer-unique temp file
//     (`<path>.<pid>.<seq>.tmp`), are fsync'd, then renamed onto `path`.
//     Readers observe either the old complete file or the new complete file,
//     never a prefix, for any kill point.
//   * write_framed_file / read_framed_payload: the shared artifact framing
//     (magic, u64 payload size, u64 CRC64 of the payload, payload) used by
//     XFATRC3 trace artifacts and XFAMDL1 model files. The reader validates
//     the declared size against the real file size before allocating and
//     the checksum before parsing, so no on-disk bytes can crash a loader.
//   * sweep_stale_temps: deletes `*.tmp` and `*.claim` litter abandoned by
//     writers whose pid is no longer alive.
#pragma once

#include <string>
#include <string_view>

#include "common/status.h"

namespace xfa {

/// Writes `bytes` to a unique temp next to `path`, fsyncs, and atomically
/// renames onto `path`. On any failure the temp file is removed and nothing
/// is published (kIoError). Does not create parent directories.
Status atomic_write_file(const std::string& path, std::string_view bytes);

/// Reads the whole file. kNotFound when the file does not exist; kIoError
/// for any other read failure.
Result<std::string> read_file_bytes(const std::string& path);

/// Serializes the framed artifact (magic + size + CRC64 + payload) in memory
/// and publishes it via atomic_write_file.
Status write_framed_file(const std::string& path, std::string_view magic,
                         std::string_view payload);

/// Reads a framed artifact and returns its payload after validating magic,
/// declared size (against the real file size, so a hostile length field
/// never drives the allocation) and checksum. kNotFound when missing;
/// kCorruptArtifact (with a human-readable reason, file NOT quarantined —
/// that policy belongs to the caller) on any validation failure.
Result<std::string> read_framed_payload(const std::string& path,
                                        std::string_view magic);

/// Moves a failed artifact aside to `<path>.corrupt` so the next run
/// regenerates it while the bad bytes stay available for post-mortems.
/// Never throws; if even removal fails the caller still regenerates and an
/// atomic rename will overwrite the bad file.
void quarantine_file(const std::string& path);

/// Deletes `*.tmp` files abandoned in `directory` by crashed writers. A temp
/// whose embedded pid is still alive is never touched (the old age-based
/// sweep could delete a live slow writer's temp); a temp with a dead pid is
/// removed immediately, and a temp whose name does not parse falls back to a
/// 24-hour age bound. `*.claim` files whose holder died are reaped too
/// (ClaimFile::holder_alive). Best-effort: all filesystem errors are
/// swallowed.
void sweep_stale_temps(const std::string& directory);

/// Cross-process single-flight claim on an artifact path. A producer about
/// to generate `path` creates `path + ".claim"` exclusively (O_CREAT|O_EXCL)
/// with its pid inside; a concurrent producer fails to acquire, polls for
/// the artifact to appear, and reaps the claim when its recorded holder has
/// died. Claims are purely an optimization handshake for work deduplication
/// (shard workers sharing one trace cache): correctness never depends on
/// one — a waiter whose patience runs out regenerates the artifact itself,
/// and the atomic rename publish keeps that safe.
class ClaimFile {
 public:
  ClaimFile() = default;
  ~ClaimFile() { release(); }
  ClaimFile(const ClaimFile&) = delete;
  ClaimFile& operator=(const ClaimFile&) = delete;

  /// Attempts to claim `artifact_path`. Returns true when this process
  /// should proceed as the producer: the claim was created, or claims are
  /// not usable here (no O_EXCL support, claim directory unwritable) and
  /// deduplication is skipped. False means a competing live producer holds
  /// the claim.
  bool try_acquire(const std::string& artifact_path);

  /// True while this instance holds a claim file on disk.
  bool held() const { return !path_.empty(); }

  /// Removes the claim file (idempotent; also run by the destructor).
  void release();

  /// True when a claim exists on `artifact_path` and its recorded holder is
  /// still alive. A claim whose holder died is deleted (stale-claim reaping)
  /// and reported absent; an unparseable claim is trusted briefly, then
  /// reaped on age like orphaned temps.
  static bool holder_alive(const std::string& artifact_path);

  /// Claim-poll sleep helper (waiters nap between holder_alive checks).
  static void sleep_ms(int ms);

 private:
  std::string path_;  // empty = not held
};

}  // namespace xfa
