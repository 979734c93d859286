// One execution policy for every parallelism knob in the system.
//
// ExecPolicy says how parallel a piece of work runs: which backend runs it,
// how many worker *processes* the process backend forks, and how many pool
// *threads* the calling process uses. The dataflow engine
// (EngineConfig::exec), the DM sweep (SinglePulseSearchParams::exec) and
// fold-parallel cross-validation (CvOptions::exec) each take one and pick
// their own default width: 4 threads for the engine, 1 for the other two.
//
// Lives in util (not dataflow) because the dedisp and ml layers consume it
// without depending on the engine.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace drapid {

/// Which executor implementation runs stage tasks.
enum class ExecBackend {
  kLocal,    ///< in-process work-stealing pool (the default; PR 3 scheduler)
  kProcess,  ///< forked worker processes shuffling over Unix-domain sockets
};

inline const char* exec_backend_name(ExecBackend backend) {
  return backend == ExecBackend::kProcess ? "process" : "local";
}

/// Parses "local" / "process"; throws std::runtime_error on anything else.
inline ExecBackend parse_exec_backend(const std::string& name) {
  if (name == "local") return ExecBackend::kLocal;
  if (name == "process") return ExecBackend::kProcess;
  throw std::runtime_error("unknown execution backend: '" + name +
                           "' (expected local or process)");
}

struct ExecPolicy {
  ExecBackend backend = ExecBackend::kLocal;
  /// Worker processes for the process backend. 0 = derive from context
  /// (the engine uses its modeled executor count).
  std::size_t workers = 0;
  /// In-process pool threads: the local backend's task pool, or on the
  /// process backend the coordinator's pool for stages that run in-process
  /// (pool workers run their tasks on one thread). 0 and 1 both mean one.
  std::size_t threads_per_worker = 1;

  static ExecPolicy local(std::size_t threads) {
    return {ExecBackend::kLocal, 0, threads};
  }
  static ExecPolicy process(std::size_t workers,
                            std::size_t threads_per_worker = 1) {
    return {ExecBackend::kProcess, workers, threads_per_worker};
  }

  /// The effective process-worker count (`fallback` when unset).
  std::size_t resolve_workers(std::size_t fallback) const {
    return workers != 0 ? workers : fallback;
  }
};

}  // namespace drapid
