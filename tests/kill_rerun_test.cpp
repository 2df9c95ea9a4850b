// Kill-and-rerun harness for resuming from the trace cache: a subprocess
// running `xfa_bench smoke` over a fresh cache directory is SIGKILLed once N
// trace artifacts exist, then the same command is re-run to completion. The
// rerun must print bytes identical to an uninterrupted run, leave every
// artifact that existed at the kill untouched (same inode, same mtime), and
// reap the dead writer's .tmp and .claim files — for several kill points and
// both ends of the thread spectrum.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace xfa {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Starts `xfa_bench smoke --threads=N --out=OUT` with the trace cache rooted
/// at `cache_dir`. The child's environment is the test's own minus the
/// variables this harness controls: XFA_NO_CACHE is dropped (the cache is
/// the resume mechanism under test, and the sanitizer robustness gate runs
/// ctest with XFA_NO_CACHE=1), fast mode keeps the runtime bounded.
pid_t spawn_smoke(const std::string& cache_dir, int threads,
                  const std::string& out_path) {
  std::vector<std::string> env_strings;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string var = *entry;
    if (var.rfind("XFA_NO_CACHE=", 0) == 0 ||
        var.rfind("XFA_CACHE_DIR=", 0) == 0 || var.rfind("XFA_FAST=", 0) == 0)
      continue;
    env_strings.push_back(var);
  }
  env_strings.push_back("XFA_CACHE_DIR=" + cache_dir);
  env_strings.push_back("XFA_FAST=1");
  std::vector<char*> envp;
  for (std::string& var : env_strings) envp.push_back(var.data());
  envp.push_back(nullptr);

  std::string binary = XFA_BENCH_BINARY;
  std::string plan = "smoke";
  std::string threads_arg = "--threads=";
  threads_arg += std::to_string(threads);
  std::string out_arg = "--out=" + out_path;
  char* argv[] = {binary.data(), plan.data(), threads_arg.data(),
                  out_arg.data(), nullptr};

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr, argv,
                             envp.data());
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// Runs the smoke plan to completion; true on exit status 0.
bool run_smoke(const std::string& cache_dir, int threads,
               const std::string& out_path) {
  const pid_t pid = spawn_smoke(cache_dir, threads, out_path);
  if (pid < 0) return false;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Identity of one published artifact: a rewrite, even of identical bytes,
/// publishes a new inode through the atomic rename and moves the mtime.
struct Stamp {
  ino_t inode = 0;
  std::int64_t mtime_ns = 0;
  bool operator==(const Stamp&) const = default;
};

/// The cache directory's `.trc` artifacts by file name, and everything else
/// (temp files, claims, quarantined corpses) as litter.
struct Census {
  std::map<std::string, Stamp> artifacts;
  std::vector<std::string> litter;
};

Census census(const std::string& cache_dir) {
  Census result;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(cache_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() != ".trc") {
      result.litter.push_back(name);
      continue;
    }
    struct stat info {};
    if (::stat(entry.path().c_str(), &info) != 0) continue;
    result.artifacts[name] = {
        info.st_ino, static_cast<std::int64_t>(info.st_mtim.tv_sec) *
                             1000000000 +
                         info.st_mtim.tv_nsec};
  }
  return result;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) out += name + " ";
  return out;
}

class KillRerunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xfa_kill_rerun_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// The uninterrupted run's stdout, from its own fresh cache.
  std::string reference() {
    const std::string out = dir_ + "/reference.txt";
    EXPECT_TRUE(run_smoke(dir_ + "/cache_reference", 8, out));
    return read_file(out);
  }

  std::string dir_;
};

/// One kill-at-N-artifacts / rerun cycle over a fresh cache directory.
void kill_and_rerun(const std::string& dir, const std::string& reference,
                    int threads, std::size_t kill_at) {
  // Appends to a named string: `"literal" + std::to_string(...)` trips a
  // spurious GCC 12 -Wrestrict, fatal under XFA_WERROR.
  std::string tag = "t";
  tag += std::to_string(threads);
  tag += "_n";
  tag += std::to_string(kill_at);
  const std::string cache_dir = dir + "/cache_" + tag;
  std::filesystem::create_directories(cache_dir);

  const pid_t pid = spawn_smoke(cache_dir, threads, dir + "/killed.txt");
  ASSERT_GT(pid, 0) << tag << ": spawn failed";
  bool exited = false;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::minutes(10);
  while (census(cache_dir).artifacts.size() < kill_at) {
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      exited = true;
      break;
    }
    if (std::chrono::steady_clock::now() > give_up) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }
  ASSERT_FALSE(exited) << tag << ": run finished before " << kill_at
                       << " artifacts existed";
  const Census at_kill = census(cache_dir);
  ASSERT_GE(at_kill.artifacts.size(), kill_at) << tag;

  const std::string rerun_out = dir + "/rerun_" + tag + ".txt";
  ASSERT_TRUE(run_smoke(cache_dir, threads, rerun_out)) << tag;
  EXPECT_EQ(read_file(rerun_out), reference)
      << tag << ": rerun output differs from the uninterrupted run";

  const Census after = census(cache_dir);
  for (const auto& [name, stamp] : at_kill.artifacts) {
    const auto it = after.artifacts.find(name);
    ASSERT_NE(it, after.artifacts.end()) << tag << ": " << name << " vanished";
    EXPECT_EQ(it->second, stamp) << tag << ": " << name << " was rewritten";
  }
  EXPECT_TRUE(after.litter.empty())
      << tag << ": litter left behind: " << join(after.litter);
}

TEST_F(KillRerunTest, KilledRunsResumeFromCacheByteIdentical) {
  const std::string expected = reference();
  ASSERT_FALSE(expected.empty());
  for (const int threads : {1, 8}) {
    for (const std::size_t kill_at : {2u, 7u}) {
      kill_and_rerun(dir_, expected, threads, kill_at);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(KillRerunTest, RerunOverCompleteCacheRewritesNothing) {
  const std::string expected = reference();
  ASSERT_FALSE(expected.empty());
  const std::string cache_dir = dir_ + "/cache_reference";
  const Census complete = census(cache_dir);
  ASSERT_FALSE(complete.artifacts.empty());

  const std::string rerun_out = dir_ + "/rerun.txt";
  ASSERT_TRUE(run_smoke(cache_dir, 8, rerun_out));
  EXPECT_EQ(read_file(rerun_out), expected);
  const Census after = census(cache_dir);
  EXPECT_EQ(after.artifacts, complete.artifacts)
      << "a warm rerun rewrote or added artifacts";
  EXPECT_TRUE(after.litter.empty()) << join(after.litter);
}

}  // namespace
}  // namespace xfa
