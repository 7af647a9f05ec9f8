#include "util/stack_profile.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/sync.h"

namespace simj::stackprof {

namespace {

struct NameRegistry {
  Mutex mu;
  std::map<int, std::string> names SIMJ_GUARDED_BY(mu);  // tid -> name
};

NameRegistry& Names() {
  static NameRegistry* names = new NameRegistry();  // simj-lint: allow(new) leaky singleton
  return *names;
}

// A fork() while another thread holds the registry mutex (a thread naming
// itself) would leave the child a mutex no thread there can release, and
// the child's first NoteThisThread would hang. So the forking thread holds
// it across fork(). Registered at load time, before the CPU profiler
// registers its own handlers in StartProfiling: prepare handlers run in
// reverse registration order, so fork() takes the profiler's registry
// mutex first and this one second, the order DrainRingsLocked nests them.
[[maybe_unused]] const bool g_fork_safe_names = [] {
  ::pthread_atfork(
      []() SIMJ_NO_THREAD_SAFETY_ANALYSIS { Names().mu.Lock(); },
      []() SIMJ_NO_THREAD_SAFETY_ANALYSIS { Names().mu.Unlock(); },
      []() SIMJ_NO_THREAD_SAFETY_ANALYSIS { Names().mu.Unlock(); });
  return true;
}();

std::atomic<void (*)(int, const std::string&)> g_noted_hook{nullptr};

}  // namespace

int ThisTid() { return static_cast<int>(::syscall(SYS_gettid)); }

void NoteThisThread(const std::string& name) {
  const int tid = ThisTid();
  {
    NameRegistry& registry = Names();
    MutexLock lock(registry.mu);
    registry.names[tid] = name;
  }
  if (auto* hook = g_noted_hook.load(std::memory_order_acquire)) {
    hook(tid, name);
  }
}

void SetThreadNotedHook(void (*hook)(int tid, const std::string& name)) {
  g_noted_hook.store(hook, std::memory_order_release);
}

std::map<int, std::string> ThreadNames() {
  NameRegistry& registry = Names();
  MutexLock lock(registry.mu);
  return registry.names;
}

void ForgetThread(int tid) {
  NameRegistry& registry = Names();
  MutexLock lock(registry.mu);
  registry.names.erase(tid);
}

std::string ThreadLabel(const std::map<int, std::string>& names, int tid) {
  auto it = names.find(tid);
  if (it != names.end()) return CleanFrameToken(it->second);
  return "tid-" + std::to_string(tid);
}

std::string CleanFrameToken(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (c == ' ') {
      // Demangled signatures put a space after each comma; dropping it
      // keeps "Foo(int, long)" readable as "Foo(int,long)".
      continue;
    }
    out.push_back(c == ';' ? ':' : (c == '\n' ? '_' : c));
  }
  return out.empty() ? std::string("[unknown]") : out;
}

const std::string& Symbolizer::Name(const void* addr) {
  auto it = names_.find(addr);
  if (it != names_.end()) return it->second;
  std::string name;
  Dl_info info{};
  if (::dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled
                                                 : info.dli_sname;
    std::free(demangled);
  } else if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
    // No symbol (static function, stripped object): module + offset keeps
    // the frame stable enough to aggregate and diff.
    const char* base = std::strrchr(info.dli_fname, '/');
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer), "%s+0x%zx",
                  base != nullptr ? base + 1 : info.dli_fname,
                  reinterpret_cast<size_t>(addr) -
                      reinterpret_cast<size_t>(info.dli_fbase));
    name = buffer;
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "0x%zx",
                  reinterpret_cast<size_t>(addr));
    name = buffer;
  }
  return names_[addr] = CleanFrameToken(name);
}

std::vector<std::string> Symbolizer::RootFirst(void* const* leaf_first,
                                               int depth) {
  std::vector<std::string> frames;
  frames.reserve(static_cast<size_t>(std::max(depth, 1)));
  for (int f = depth - 1; f >= 0; --f) frames.push_back(Name(leaf_first[f]));
  if (frames.empty()) frames.push_back("[truncated]");
  return frames;
}

}  // namespace simj::stackprof
