/*
 * sprof: a tiny sampling CPU profiler loaded with LD_PRELOAD.
 *
 * Build:  cc -O2 -shared -fPIC -o sprof.so sprof.c
 * Use:    SPROF_DIR=out LD_PRELOAD=$PWD/sprof.so <cmd...>
 *         (scripts/profile.sh does both and runs report.py afterwards)
 *
 * Every process that loads the shim arms ITIMER_PROF; on each SIGPROF the
 * handler records the interrupted program counter (from the ucontext) and
 * up to MAX_CALLERS return addresses found by _Unwind_Backtrace through
 * the signal frame. At exit the process writes one text file,
 * SPROF_DIR/sprof.<pid>.txt: a header, a copy of /proc/self/maps (the
 * report needs it to map PCs back to files) and one line per sample.
 * Children inherit LD_PRELOAD, so spawned daemons are profiled as well.
 *
 * The timer asks for 1000 samples per CPU-second; the kernel's tick
 * bounds what it gets (about 100-250). A buffer of CAPACITY samples (an
 * hour of CPU time at that rate) is reserved but only touched as filled;
 * later samples are counted as dropped. Caveats: a process killed
 * by SIGKILL writes nothing; unwinding from a signal handler is not
 * async-signal-safe in general (libgcc on glibc >= 2.35 finds unwind
 * tables through the lock-free _dl_find_object, which is what makes it
 * work in practice); frames in a stripped library (libc) resolve to the
 * nearest exported symbol. Use the numbers for attribution, never as a
 * measurement.
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>
#include <unwind.h>

#define MAX_CALLERS 8
#define FRAMES (1 + MAX_CALLERS)
/* Frames the unwinder may walk inside the handler before the signal frame. */
#define MAX_WALK (FRAMES + 16)
#define CAPACITY ((size_t)1 << 20)
#define INTERVAL_US 1000

struct sample {
    uintptr_t pc[FRAMES]; /* pc[0] = leaf; 0 ends the caller list */
};

static struct sample *samples;
static volatile size_t taken;   /* slots claimed (may exceed capacity) */
static volatile int armed;

struct walk {
    uintptr_t *out;
    int n;
    int seen_signal_frame;
    int steps;
};

/* Skips the handler's own frames; once the frame interrupted by the signal
 * is reached (its IP is exact, not a return address), records it and the
 * callers above it. */
static _Unwind_Reason_Code on_frame(struct _Unwind_Context *ctx, void *arg) {
    struct walk *w = arg;
    int before_insn = 0;
    uintptr_t ip = _Unwind_GetIPInfo(ctx, &before_insn);
    if (++w->steps > MAX_WALK)
        return _URC_END_OF_STACK;
    if (!w->seen_signal_frame) {
        if (before_insn)
            w->seen_signal_frame = 1; /* the leaf; already stored as pc[0] */
        return _URC_NO_REASON;
    }
    if (ip == 0 || w->n >= FRAMES)
        return _URC_END_OF_STACK;
    w->out[w->n++] = ip;
    return _URC_NO_REASON;
}

static uintptr_t leaf_pc(void *uc_) {
    ucontext_t *uc = uc_;
#if defined(__x86_64__)
    return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    return (uintptr_t)uc->uc_mcontext.pc;
#else
    (void)uc;
    return 0;
#endif
}

static void on_sigprof(int sig, siginfo_t *info, void *uc) {
    (void)sig;
    (void)info;
    if (!armed)
        return;
    size_t i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= CAPACITY)
        return; /* counted as dropped */
    struct sample *s = &samples[i];
    s->pc[0] = leaf_pc(uc);
    struct walk w = {s->pc, 1, 0, 0};
    _Unwind_Backtrace(on_frame, &w);
    for (int k = w.n; k < FRAMES; k++)
        s->pc[k] = 0;
}

static void put(int fd, const char *s, size_t n) {
    while (n > 0) {
        ssize_t k = write(fd, s, n);
        if (k <= 0)
            return;
        s += k;
        n -= (size_t)k;
    }
}

static void puts_fd(int fd, const char *s) { put(fd, s, strlen(s)); }

static void dump(void) {
    if (!armed)
        return;
    armed = 0;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);

    const char *dir = getenv("SPROF_DIR");
    char path[4096];
    snprintf(path, sizeof path, "%s/sprof.%d.txt", dir && *dir ? dir : ".", (int)getpid());
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        return;

    char line[512];
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = 0;
    size_t total = taken;
    size_t kept = total < CAPACITY ? total : CAPACITY;
    snprintf(line, sizeof line, "# sprof pid %d samples %zu dropped %zu\n# exe ",
             (int)getpid(), kept, total - kept);
    puts_fd(fd, line);
    puts_fd(fd, exe);
    puts_fd(fd, "\n");

    int maps = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
    if (maps >= 0) {
        /* Prefix each maps line with "M ". */
        char buf[8192];
        int at_line_start = 1;
        ssize_t k;
        while ((k = read(maps, buf, sizeof buf)) > 0) {
            ssize_t start = 0;
            for (ssize_t j = 0; j < k; j++) {
                if (at_line_start)
                    put(fd, "M ", 2);
                at_line_start = buf[j] == '\n';
                if (at_line_start) {
                    put(fd, buf + start, (size_t)(j + 1 - start));
                    start = j + 1;
                }
            }
            put(fd, buf + start, (size_t)(k - start));
        }
        close(maps);
    }

    for (size_t i = 0; i < kept; i++) {
        int len = snprintf(line, sizeof line, "S");
        for (int f = 0; f < FRAMES && samples[i].pc[f]; f++)
            len += snprintf(line + len, sizeof line - len, " %lx", (unsigned long)samples[i].pc[f]);
        line[len++] = '\n';
        put(fd, line, (size_t)len);
    }
    close(fd);
}

__attribute__((constructor)) static void sprof_init(void) {
    samples = mmap(NULL, CAPACITY * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED)
        return;

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;

    struct itimerval it = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    armed = 1;
    atexit(dump);
    setitimer(ITIMER_PROF, &it, NULL);
}
