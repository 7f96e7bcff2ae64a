#include "base/subprocess.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/eintr.hh"
#include "base/faultinject.hh"
#include "base/status.hh"
#include "base/strutil.hh"

namespace lkmm::subprocess
{

namespace site = faultinject::site;

namespace
{

[[noreturn]] void
sysError(const char *what)
{
    throw StatusError(Status(
        StatusCode::Internal,
        std::string(what) + ": " + std::strerror(errno)));
}

void
applyLimits(const Limits &limits)
{
    if (limits.cpuSeconds) {
        // Hard limit one second above soft: the child gets a
        // catchable SIGXCPU at the soft limit and an uncatchable
        // SIGKILL shortly after if it ignores it.
        struct rlimit rl;
        rl.rlim_cur = limits.cpuSeconds;
        rl.rlim_max = limits.cpuSeconds + 1;
        setrlimit(RLIMIT_CPU, &rl);
    }
    if (limits.memoryBytes) {
        struct rlimit rl;
        rl.rlim_cur = limits.memoryBytes;
        rl.rlim_max = limits.memoryBytes;
        setrlimit(RLIMIT_AS, &rl);
    }
}

void
writeAll(int fd, const std::string &data)
{
    std::size_t written = 0;
    while (written < data.size()) {
        ssize_t n = retryEintr(site::kSubprocessChildWrite, EPIPE, [&] {
            return ::write(fd, data.data() + written,
                           data.size() - written);
        });
        if (n < 0)
            return; // parent gone; nothing sensible left to do
        written += static_cast<std::size_t>(n);
    }
}

} // namespace

std::string
Outcome::describe() const
{
    switch (kind) {
      case ExitKind::Exited:
        return format("exited %d", exitCode);
      case ExitKind::Signaled:
        return format("killed by signal %d (%s)", signal,
                      strsignal(signal));
      case ExitKind::TimedOut:
        return "timed out (killed by watchdog)";
    }
    return "?";
}

Outcome
decodeWaitStatus(int status, bool timedOut)
{
    Outcome outcome;
    if (timedOut) {
        outcome.kind = ExitKind::TimedOut;
    } else if (WIFSIGNALED(status)) {
        outcome.kind = ExitKind::Signaled;
        outcome.signal = WTERMSIG(status);
    } else {
        outcome.kind = ExitKind::Exited;
        outcome.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    return outcome;
}

Child
Child::spawn(const std::function<std::string()> &work, const Limits &limits)
{
    int pipefd[2];
    if (retryEintr(site::kSubprocessPipe, EMFILE,
                   [&] { return ::pipe2(pipefd, O_CLOEXEC); }) != 0) {
        sysError("pipe2 failed");
    }

    // fork's characteristic transient failure is EAGAIN (pid/rlimit
    // pressure); the batch runner's RetryPolicy heals it with
    // backoff, which the subprocess-fork fault site exists to prove.
    pid_t pid = retryEintr(site::kSubprocessFork, EAGAIN,
                           [&] { return ::fork(); });
    if (pid < 0) {
        int saved = errno;
        ::close(pipefd[0]);
        ::close(pipefd[1]);
        errno = saved;
        sysError("fork failed");
    }

    if (pid == 0) {
        // Child.  Only _exit from here on: running atexit handlers
        // or flushing the parent's stdio buffers in a forked copy
        // would corrupt the parent's output.
        ::close(pipefd[0]);
        // A parent that died early must not leave us writing to a
        // broken pipe forever.
        ::signal(SIGPIPE, SIG_DFL);
        if (limits.newProcessGroup) {
            // Become our own group leader so the watchdog can kill
            // the whole group and leak scans can find stragglers.
            ::setpgid(0, 0);
        }
        applyLimits(limits);
        int code = 0;
        try {
            writeAll(pipefd[1], work());
        } catch (...) {
            code = kCallbackError;
        }
        ::close(pipefd[1]);
        ::_exit(code);
    }

    // Parent.
    ::close(pipefd[1]);
    Child child;
    child.pid_ = pid;
    child.fd_ = pipefd[0];
    child.processGroup_ = limits.newProcessGroup;
    if (limits.deadline.count() > 0) {
        child.hasDeadline_ = true;
        child.deadline_ = std::chrono::steady_clock::now() + limits.deadline;
    }
    return child;
}

Child::Child(Child &&other) noexcept
    : pid_(other.pid_), fd_(other.fd_),
      processGroup_(other.processGroup_), timedOut_(other.timedOut_),
      finished_(other.finished_), hasDeadline_(other.hasDeadline_),
      deadline_(other.deadline_), output_(std::move(other.output_))
{
    other.pid_ = -1;
    other.fd_ = -1;
    other.finished_ = true;
}

Child &
Child::operator=(Child &&other) noexcept
{
    if (this != &other) {
        reapForDestructor();
        pid_ = other.pid_;
        fd_ = other.fd_;
        processGroup_ = other.processGroup_;
        timedOut_ = other.timedOut_;
        finished_ = other.finished_;
        hasDeadline_ = other.hasDeadline_;
        deadline_ = other.deadline_;
        output_ = std::move(other.output_);
        other.pid_ = -1;
        other.fd_ = -1;
        other.finished_ = true;
    }
    return *this;
}

Child::~Child()
{
    reapForDestructor();
}

void
Child::reapForDestructor()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (pid_ > 0 && !finished_) {
        // No injection here: the destructor is the last line of
        // defense against process leaks and must stay infallible.
        if (processGroup_)
            ::kill(-pid_, SIGKILL);
        else
            ::kill(pid_, SIGKILL);
        int status;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        finished_ = true;
    }
}

bool
Child::onReadable()
{
    if (fd_ < 0)
        return true;
    char buf[4096];
    for (;;) {
        ssize_t n = retryEintr(site::kSubprocessRead, EIO, [&] {
            return ::read(fd_, buf, sizeof(buf));
        });
        if (n > 0) {
            output_.append(buf, static_cast<std::size_t>(n));
            if (n < static_cast<ssize_t>(sizeof(buf)))
                return false; // drained what was available
            continue;
        }
        if (n == 0) {
            ::close(fd_);
            fd_ = -1;
            return true; // EOF: child closed its end
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return false;
        // Read error: treat like EOF, the wait status tells the rest.
        ::close(fd_);
        fd_ = -1;
        return true;
    }
}

void
Child::killTimedOut()
{
    if (pid_ > 0 && !finished_) {
        timedOut_ = true;
        // An injected kill failure leaves the child running; finish()
        // then blocks until it exits on its own, and the destructor
        // path still reaps it — degraded, never leaked.
        if (faultinject::checkSiteErrno(site::kSubprocessKill, EPERM) != 0)
            return;
        if (processGroup_)
            ::kill(-pid_, SIGKILL);
        else
            ::kill(pid_, SIGKILL);
    }
}

Outcome
Child::finish()
{
    // Drain whatever the child managed to write.  After SIGKILL or
    // _exit the write end is closed, so this terminates at EOF.
    while (fd_ >= 0)
        onReadable();

    Outcome outcome;
    if (pid_ > 0 && !finished_) {
        int status = 0;
        if (retryEintr(site::kSubprocessWaitpid, ECHILD, [&] {
                return ::waitpid(pid_, &status, 0);
            }) < 0) {
            sysError("waitpid failed");
        }
        finished_ = true;
        outcome = decodeWaitStatus(status, timedOut_);
    }
    outcome.output = std::move(output_);
    output_.clear();
    return outcome;
}

void
closeFdsExcept(const std::vector<int> &keep)
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (dir == nullptr)
        return; // /proc unavailable: keep the inherited fds, degraded
    const int dirFd = ::dirfd(dir);
    std::vector<int> toClose;
    while (struct dirent *entry = ::readdir(dir)) {
        char *end = nullptr;
        const long fd = std::strtol(entry->d_name, &end, 10);
        if (end == entry->d_name || *end != '\0')
            continue;
        if (fd <= 2 || fd == dirFd)
            continue;
        bool keepIt = false;
        for (const int k : keep)
            keepIt = keepIt || fd == k;
        if (!keepIt)
            toClose.push_back(static_cast<int>(fd));
    }
    ::closedir(dir);
    // Close after the scan: closing mid-iteration invalidates the
    // directory stream on some libcs.
    for (const int fd : toClose)
        ::close(fd);
}

std::size_t
residentSetKb(pid_t pid)
{
    const std::string path =
        "/proc/" + std::to_string(pid) + "/statm";
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return 0;
    char buf[128];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf) - 1)) < 0 &&
           errno == EINTR) {
    }
    ::close(fd);
    if (n <= 0)
        return 0;
    buf[n] = '\0';
    // statm: size resident shared ... (in pages)
    unsigned long long size = 0, resident = 0;
    if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2)
        return 0;
    const long pageKb = ::sysconf(_SC_PAGESIZE) / 1024;
    return static_cast<std::size_t>(resident) *
        static_cast<std::size_t>(pageKb > 0 ? pageKb : 4);
}

Outcome
runIsolated(const std::function<std::string()> &work, const Limits &limits)
{
    Child child = Child::spawn(work, limits);
    while (child.fd() >= 0) {
        struct pollfd pfd;
        pfd.fd = child.fd();
        pfd.events = POLLIN;
        pfd.revents = 0;

        int timeoutMs = -1;
        if (child.hasDeadline()) {
            auto now = std::chrono::steady_clock::now();
            if (child.pastDeadline(now)) {
                child.killTimedOut();
                break;
            }
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                child.deadline() - now);
            timeoutMs = static_cast<int>(left.count()) + 1;
        }

        // poll's EINTR is handled at this level, NOT hidden in
        // retryEintr: an EINTR wake-up is how cancellation tokens
        // set from signal handlers get noticed (see base/eintr.hh).
        int rc;
        if (int injected = faultinject::checkSiteErrno(
                site::kSubprocessPoll, EIO)) {
            errno = injected;
            rc = -1;
        } else {
            rc = ::poll(&pfd, 1, timeoutMs);
        }
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            sysError("poll failed");
        }
        if (rc > 0)
            child.onReadable();
    }
    return child.finish();
}

} // namespace lkmm::subprocess
