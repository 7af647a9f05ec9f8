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

// dladdr reads only the dynamic symbol table; GCC's libbacktrace also reads
// .symtab, so it names internal-linkage functions. __has_include keeps a
// compiler that cannot see GCC's private include directory off it.
#if defined(SIMJ_HAVE_LIBBACKTRACE) && __has_include(<backtrace.h>)
#include <backtrace.h>
#define SIMJ_SYMTAB_NAMES 1
#endif

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

// The mangled .symtab name of the function containing `addr`, or nullptr.
// The libbacktrace state is made lazily per process (a forked worker makes
// its own) and never freed: libbacktrace has no call that frees one.
const char* SymtabName([[maybe_unused]] const void* addr) {
  const char* name = nullptr;
#ifdef SIMJ_SYMTAB_NAMES
  struct ProcessState {
    pid_t pid;
    backtrace_state* state;
  };
  static std::atomic<const ProcessState*> current{nullptr};
  auto ignore = [](void*, const char*, int) {};
  const ProcessState* owned = current.load(std::memory_order_acquire);
  if (owned == nullptr || owned->pid != ::getpid()) {
    owned = new ProcessState{  // simj-lint: allow(new) one per process
        ::getpid(), ::backtrace_create_state(nullptr, 1, ignore, nullptr)};
    current.store(owned, std::memory_order_release);
  }
  if (owned->state != nullptr) {
    ::backtrace_syminfo(
        owned->state, reinterpret_cast<uintptr_t>(addr),
        [](void* out, uintptr_t, const char* symbol, uintptr_t, uintptr_t) {
          *static_cast<const char**>(out) = symbol;
        },
        ignore, &name);
  }
#endif
  return name;
}

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
  const char* symbol = ::dladdr(addr, &info) != 0 ? info.dli_sname : nullptr;
  if (symbol == nullptr) symbol = SymtabName(addr);
  if (symbol != nullptr) {
    int status = -1;
    char* demangled = abi::__cxa_demangle(symbol, nullptr, nullptr, &status);
    name = (status == 0 && demangled != nullptr) ? demangled : symbol;
    std::free(demangled);
  } else if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
    // No symbol (stripped object, or no libbacktrace): module + offset
    // keeps the frame stable enough to aggregate and diff.
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
