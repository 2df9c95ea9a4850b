#include "scenario/cache.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "common/atomic_file.h"
#include "common/env.h"
#include "scenario/trace_serial.h"

namespace xfa {
namespace {

// Artifact format (XFATRC3): the shared frame from common/atomic_file.h
// (magic, payload size, CRC64 of the payload, payload) around the trace
// payload from scenario/trace_serial.h. Every count inside the payload is
// validated against the actual payload size before any allocation.
constexpr char kMagic[] = "XFATRC3";

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Quarantines the failed artifact and reports where the bytes went.
Status corrupt_artifact(const std::string& path, const std::string& what) {
  quarantine_file(path);
  return {StatusCode::kCorruptArtifact,
          path + ": " + what + " (quarantined to " + path + ".corrupt)"};
}

}  // namespace

TraceCache::TraceCache(std::string directory) : directory_(std::move(directory)) {
  // Environment reads go through the immutable process snapshot
  // (common/env.h) so concurrent pool workers never race on getenv.
  if (env().no_cache) {
    enabled_ = false;
    return;
  }
  if (directory_.empty()) directory_ = env().cache_dir;
}

std::string TraceCache::artifact_path(const std::string& key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.trc",
                static_cast<unsigned long long>(fnv1a(key)));
  return directory_ + "/" + name;
}

Result<ScenarioResult> TraceCache::load(const std::string& key) const {
  if (!enabled_) return Status{StatusCode::kNotFound, "cache disabled"};
  const std::string path = artifact_path(key);
  Result<std::string> payload = read_framed_payload(path, kMagic);
  if (!payload.ok()) {
    if (payload.status().code() == StatusCode::kCorruptArtifact)
      return corrupt_artifact(path, payload.status().message());
    return payload.status();  // kNotFound (miss) or kIoError, both untouched
  }

  ScenarioResult result;
  bool key_mismatch = false;
  if (!parse_scenario_payload(*payload, key, key_mismatch, result)) {
    if (key_mismatch)  // healthy artifact for a colliding key; leave it be
      return Status{StatusCode::kNotFound, path + ": key collision"};
    return corrupt_artifact(path, "malformed payload");
  }
  return result;
}

Status TraceCache::store(const std::string& key,
                         const ScenarioResult& result) const {
  if (!enabled_) return Status::Ok();

  std::string payload;
  if (Status s = append_scenario_payload(payload, key, result); !s.ok())
    return s;

  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec && !std::filesystem::is_directory(directory_))
    return {StatusCode::kIoError, directory_ + ": " + ec.message()};
  // write_framed_file publishes through a per-writer-unique temp + atomic
  // rename, so concurrent stores (threads or processes) never interleave
  // and readers never observe a partial artifact.
  if (Status s = write_framed_file(artifact_path(key), kMagic, payload);
      !s.ok())
    return s;
  // Sweep temp and claim files abandoned by *crashed* writers. The sweep is
  // pid-aware (common/atomic_file.h): a temp whose embedded writer pid is
  // still alive is never deleted, however old, so a slow concurrent store
  // can no longer lose its temp mid-write to this janitor.
  sweep_stale_temps(directory_);
  return Status::Ok();
}

}  // namespace xfa
