// Platform introspection used by the Table 1 / Table 2 reproductions.
#pragma once

#include <cstddef>
#include <string>

namespace mfc {

struct SysInfo {
  std::string arch;          ///< e.g. "x86_64"
  std::string os;            ///< e.g. "Linux 6.1"
  int ncpus = 0;             ///< online CPU count
  std::string cpu_model = "unavailable";  ///< /proc/cpuinfo "model name"
  std::string governor = "unavailable";   ///< cpu0 cpufreq scaling governor
  std::size_t page_size = 0;
  std::size_t total_ram = 0;          ///< bytes, 0 when unknown
  std::size_t address_bits = 0;       ///< virtual address width
  long max_user_processes = -1;       ///< RLIMIT_NPROC soft limit, -1 unlimited
  std::size_t max_stack = 0;          ///< RLIMIT_STACK soft limit, 0 unlimited
};

SysInfo query_sysinfo();

/// Capability probes used by the portability matrix (paper Table 1).
struct Capabilities {
  bool mmap_fixed = false;      ///< can remap pages at a chosen address
  bool memfd = false;           ///< memfd_create available (memory-alias stacks)
  bool big_reservation = false; ///< can reserve >= 16 GB of PROT_NONE VA (isomalloc)
  bool fork_works = false;      ///< process flows-of-control available
  bool stack_base_fixed = false;///< system stack base identical across runs
                                ///< (required by stack-copy on the *system* stack;
                                ///< our implementation uses its own arena, so this
                                ///< is informational)
};

Capabilities probe_capabilities();

}  // namespace mfc
