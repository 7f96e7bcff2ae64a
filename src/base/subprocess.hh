/**
 * @file
 * A fork-per-task sandbox for crash isolation.
 *
 * The enumerator is exponential and the input corpus untrusted; a
 * segfault, OOM, or runaway loop in one test must cost exactly that
 * test, never the sweep.  Child::spawn forks, applies setrlimit
 * caps in the child, runs a callback whose string result travels
 * back over a pipe, and _exits.  The parent owns the watchdog: it
 * polls the result pipe with a wall-clock deadline and SIGKILLs a
 * child that overruns it.
 *
 * The exit protocol makes every failure mode distinguishable:
 *
 *   outcome           meaning
 *   ----------------  ----------------------------------------------
 *   Exited(0)+output  callback completed; output is its payload
 *   Exited(!=0)       callback threw / runtime died "cleanly"
 *                     (sanitizer aborts land here too)
 *   Signaled(sig)     hard crash: SIGSEGV, SIGABRT, rlimit SIGKILL
 *   TimedOut          parent watchdog killed a past-deadline child
 *
 * The caller maps these onto its own taxonomy (the batch runner
 * turns Signaled into TestFailure{phase:"crash"}).
 *
 * The child runs in a forked copy of the parent — no exec — so the
 * callback can use any library state, but it must not rely on
 * threads (only the forking thread survives fork) and must not
 * touch the parent's fds beyond the pipe it is given.
 */

#ifndef LKMM_BASE_SUBPROCESS_HH
#define LKMM_BASE_SUBPROCESS_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace lkmm::subprocess
{

/** Resource caps applied to one child. */
struct Limits
{
    /**
     * Wall-clock deadline enforced by the parent watchdog
     * (0 = none).  This is the only cap that catches a child
     * sleeping or blocked — rlimits only meter CPU.
     */
    std::chrono::nanoseconds deadline{0};
    /** RLIMIT_CPU in seconds (0 = unlimited). */
    unsigned cpuSeconds = 0;
    /**
     * RLIMIT_AS in bytes (0 = unlimited).  Leave unset under
     * AddressSanitizer: ASan reserves terabytes of shadow VA.
     */
    std::size_t memoryBytes = 0;
    /**
     * Run the child in its own process group (setpgid(0, 0)).  Two
     * payoffs: the watchdog SIGKILL hits the whole group, so a child
     * that itself forked cannot leave orphaned grandchildren, and a
     * post-run scan for surviving group members (the child's pid is
     * the pgid) can *prove* nothing leaked — which is exactly what
     * lkmm-chaos does after every schedule.
     */
    bool newProcessGroup = false;
};

/** How a child ended. */
enum class ExitKind
{
    /** exit(code); code 0 means the callback ran to completion. */
    Exited,
    /** Killed by a signal (crash or rlimit enforcement). */
    Signaled,
    /** SIGKILLed by the parent watchdog past Limits::deadline. */
    TimedOut,
};

/** Decoded wait status plus everything the child sent back. */
struct Outcome
{
    ExitKind kind = ExitKind::Exited;
    /** Exit code when kind == Exited. */
    int exitCode = 0;
    /** Terminating signal when kind == Signaled. */
    int signal = 0;
    /** Bytes the callback returned over the result pipe. */
    std::string output;

    bool ok() const { return kind == ExitKind::Exited && exitCode == 0; }

    /** "exited 0" / "killed by signal 11 (SIGSEGV)" / "timed out". */
    std::string describe() const;
};

/**
 * Decode a waitpid(2) status: TimedOut when the parent watchdog
 * killed the child (whatever the status says), else Signaled or
 * Exited (exitCode -1 for a status that is neither).
 */
Outcome decodeWaitStatus(int status, bool timedOut);

/**
 * One live sandboxed child.  Move-only; the destructor reaps an
 * unfinished child (SIGKILL + waitpid) so leaking a Child cannot
 * leak a process.
 */
class Child
{
  public:
    /**
     * Fork and run work() in the child.  The returned string is
     * written to the result pipe, then the child _exits(0).  A
     * callback that throws makes the child _exit(kCallbackError)
     * with nothing on the pipe.  Throws StatusError(Internal) when
     * fork/pipe themselves fail.
     */
    static Child spawn(const std::function<std::string()> &work,
                       const Limits &limits = {});

    Child(Child &&other) noexcept;
    Child &operator=(Child &&other) noexcept;
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;
    ~Child();

    /** _exit code used when the callback throws. */
    static constexpr int kCallbackError = 125;

    pid_t pid() const { return pid_; }

    /** Result-pipe read end; -1 once the pipe has hit EOF. */
    int fd() const { return fd_; }

    /**
     * Drain available pipe data (call when fd() polls readable).
     * Returns true once EOF is reached — the child has no more
     * output and can be reaped without blocking for long.
     */
    bool onReadable();

    bool hasDeadline() const { return hasDeadline_; }
    std::chrono::steady_clock::time_point deadline() const
    {
        return deadline_;
    }

    /** Past the deadline at time now? */
    bool
    pastDeadline(std::chrono::steady_clock::time_point now) const
    {
        return hasDeadline_ && now >= deadline_;
    }

    /** SIGKILL the child and record the outcome as TimedOut. */
    void killTimedOut();

    /**
     * Reap the child (blocking waitpid) and decode its outcome.
     * Also drains any pipe data not yet consumed by onReadable().
     */
    Outcome finish();

  private:
    Child() = default;

    void reapForDestructor();

    pid_t pid_ = -1;
    int fd_ = -1;
    bool processGroup_ = false;
    bool timedOut_ = false;
    bool finished_ = false;
    bool hasDeadline_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    std::string output_;
};

/**
 * Convenience wrapper: spawn, babysit the deadline, reap.  The
 * synchronous path used by tests and one-off callers; the batch
 * scheduler drives Child directly to overlap N children.
 */
Outcome runIsolated(const std::function<std::string()> &work,
                    const Limits &limits = {});

/**
 * Close every file descriptor except 0/1/2 and the ones in keep.
 * For persistent forked children (the lkmm-serve worker tier): a
 * fork inherits every open fd — listening sockets, other clients'
 * connections, the cache journal — and a long-lived child holding
 * them can delay peer EOFs and keep files pinned long after the
 * parent released them.  Scans /proc/self/fd; must be called from
 * the child, before any other descriptor is created.
 */
void closeFdsExcept(const std::vector<int> &keep);

/**
 * Resident set size of a live process in KiB, from
 * /proc/<pid>/statm (0 when the process is gone or unreadable).
 * This is the measured-RSS counterpart to Limits::memoryBytes:
 * RLIMIT_AS turns an over-budget child into a crash, while a parent
 * polling this can retire it gracefully first — and it stays usable
 * under ASan, where address-space limits cannot be.
 */
std::size_t residentSetKb(pid_t pid);

} // namespace lkmm::subprocess

#endif // LKMM_BASE_SUBPROCESS_HH
