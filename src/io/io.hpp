// Asynchronous I/O for threads (paper acknowledgments: Rustagi's async I/O).
//
// A true library implementation must not let one thread's blocking read(2) stall the whole
// process. pt_read/pt_write put the fd in non-blocking mode, attempt the operation, and on
// EAGAIN suspend the calling thread on an I/O wait registry. The registry is probed whenever
// the dispatcher goes idle, and the idle sleep happens *in* the readiness syscall so I/O
// readiness, timer signals, and external signals all wake it.
//
// Readiness comes from a persistent kernel-owned epoll interest set with a per-fd state cache.
// Each waited fd gets one FdState node (hash on fd) carrying the epoll registration it last
// made and an intrusive list of waiting threads. Registration happens once per fd; later waits
// that fit inside the cached interest mask make ZERO epoll_ctl calls, and wakeup dispatch walks
// only the fds the kernel reported ready (O(ready), not O(registered)). Idle sleeps use
// epoll_pwait2's nanosecond timeout where available.
//
// The first fd wait creates the epoll instance. If that fails, only the failing wait returns
// EAGAIN and the next wait retries. Without an instance no thread waits on an fd, so the idle
// sleep waits for timers and signals alone in one zero-fd poll(2) with a millisecond timeout.
//
// Waiters are unbounded: threads hang off their fd's FdState through Tcb::link, so enqueue,
// dequeue and fake-call removal are O(1).

#ifndef FSUP_SRC_IO_IO_HPP_
#define FSUP_SRC_IO_IO_HPP_

#include <cstddef>
#include <cstdint>

#include "src/kernel/tcb.hpp"

namespace fsup::io {

// Always-on cheap counters (bumped under the kernel monitor; no atomics needed). Exposed to
// debug/metrics and to tests/benches that pin the interest-cache behaviour.
struct IoStats {
  uint64_t waits = 0;         // WaitFdReady suspensions
  uint64_t wakeups = 0;       // threads woken by fd readiness
  uint64_t cache_hits = 0;    // waits satisfied by the cached interest set (no epoll_ctl)
  uint64_t cache_misses = 0;  // waits that had to ADD/MOD the kernel interest set
  uint64_t demotions = 0;     // interest narrowed after a readiness report woke no waiter
  uint64_t probes = 0;        // idle readiness probes (PollOnce calls)
  int active_waiters = 0;     // threads currently suspended on an fd
  int cached_fds = 0;         // live FdState nodes
};

IoStats GetStats();

// True if any thread is suspended waiting for fd readiness.
bool HaveWaiters();

// Probes fd readiness once. timeout_ns < 0 means "no deadline: sleep until an event or a
// signal"; 0 means non-blocking check. Wakes every thread whose fd became ready (or raised
// an error). Must be called with the kernel entered; the sleep itself keeps signals
// deliverable (they are deferred by the kernel flag and replayed by the dispatcher).
void PollOnce(int64_t timeout_ns);

// Registers the current thread as waiting for `events` (POLLIN/POLLOUT) on fd and suspends.
// Returns 0 once ready, or -1 with errno (EINTR if woken by a signal handler, EAGAIN if no
// epoll instance could be created or the fd could not be registered, ECANCELED via
// cancellation unwind). In kernel: no — call
// *outside* the kernel; it enters itself.
int WaitFdReady(int fd, short events);

// Closes fd for pt_close. A plain close(2) leaves the fd's node marked registered although the
// kernel dropped the fd from the interest set, so a wait on a file reusing the number would be
// a cache hit that never wakes. Under the monitor: deregisters the fd, wakes its waiters (their
// retry sees EBADF), drops its node, then close(2)s it. Returns close's result with its errno.
// In kernel: no.
int CloseFd(int fd);

// Removes t from its fd's wait list (fake-call unblocking, thread reap, reset). O(1).
void ForgetThread(Tcb* t);

// Replay-side wakeup: detaches t from its fd's wait list and readies it, exactly as the
// recorded poll pass did, without consulting any fd. In kernel; t must be io-blocked.
void ReplayWake(Tcb* t);

// Closes the epoll fd, frees every FdState and zeroes stats (pt_reinit relies on this).
void ResetForTesting();

}  // namespace fsup::io

#endif  // FSUP_SRC_IO_IO_HPP_
