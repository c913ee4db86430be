/* The walker of repro/core/program.py: a whole long step as a
 * table of rows, recorded once from the generator and replayed in one
 * call with the GIL released.  Every row is one call the generator made:
 * the address of its entry, `int entry(void *)` (a Recorded entry of
 * repro.stencil.native), the arena offset of its struct and the struct's
 * size.  A replay writes each relocated address (a step's block base plus
 * an offset), then runs the rows, each on a copy of its arguments: a body
 * may advance its struct (acoustic_args.k), and the arena stays as
 * recorded.  A row that
 * returns nonzero stops the walk: run_program returns its index + 1,
 * else 0.  With `stamps`, the CLOCK_MONOTONIC time (time.perf_counter's
 * clock) before and after each row, in seconds, written by whichever
 * worker ran it.
 *
 * A team of `team` threads walks the table: the rows between two
 * exchange rows (a segment) are each rank's contiguous rows (its runs),
 * which touch only that rank's blocks and its own scratch.  Each worker
 * runs the runs of its own block of ranks first, then takes any run not
 * yet taken (one atomic flag a run, the program's, zeroed each walk);
 * worker 0, the caller, runs the exchange row (where the segment has
 * one) once every run of the segment is done and then opens the next
 * segment; a waiting worker
 * spins a few microseconds, then yields its CPU each turn.  Workers 1..
 * are threads made for this call and joined before it returns (a team of
 * one makes none, and runs every row in table order).  A nonzero row
 * ends its run: no run is taken after it, the runs in flight finish, and
 * what ran is a prefix of each rank's rows. */
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <time.h>

/* the largest row's arguments, in longs (read by repro.stencil.native) */
#define PROGRAM_ROW_WORDS 512
/* the longs of a row: entry address, arena offset, bytes */
#define PROGRAM_ROW_LONGS 3
/* the loads a waiting worker spins on before it yields its CPU each turn
 * (a few microseconds).  No `pause`: under a hypervisor's pause-loop
 * exiting, a pause loop handed the waiting vCPU away and the walk's p95
 * rose to the one-thread walk's (EXPERIMENTS.md "A team walk") */
#define PROGRAM_SPINS 4096

typedef struct {
    long nrow, nreloc;
    const long *rows;           /* PROGRAM_ROW_LONGS a row */
    const long *relocs;         /* arena offset, base, byte offset */
    char *arena;
    long nrank, nrun, nseg;
    const long *runs;           /* first row, end row, rank */
    const long *segs;           /* first run, end run, exchange row or -1 */
    atomic_char *taken;         /* a flag a run */
    long team;
} program_header;

static double monotonic(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)(t.tv_sec * 1000000000LL + t.tv_nsec) / 1e9;
}

/* row i on a worker's copy of its arguments */
static int run_row(const program_header *p, long i, long *args,
                   double *stamps)
{
    const long *row = p->rows + PROGRAM_ROW_LONGS * i;
    if (stamps)
        stamps[2 * i] = monotonic();
    memcpy(args, p->arena + row[1], row[2]);
    const int rc = ((int (*)(void *))row[0])(args);
    if (stamps)
        stamps[2 * i + 1] = monotonic();
    return rc;
}

/* one team walk: what its workers share (tagged, not a typedef: no Python
 * caller fills it) */
struct team_walk {
    const program_header *p;
    double *stamps;
    atomic_long open;           /* segments opened */
    atomic_long finished;       /* runs finished, over every segment */
    atomic_long failed;         /* the first failing row + 1, else 0 */
};

struct team_worker {
    struct team_walk *t;
    long worker;
};

/* wait until *v >= at_least; 0 where the walk failed (a failing run sets
 * `failed` before it counts itself finished) */
static int await_count(struct team_walk *t, atomic_long *v, long at_least)
{
    for (long spin = 0;
         atomic_load_explicit(v, memory_order_acquire) < at_least; spin++) {
        if (atomic_load_explicit(&t->failed, memory_order_relaxed))
            return 0;
        if (spin >= PROGRAM_SPINS)
            sched_yield();
    }
    return !atomic_load_explicit(&t->failed, memory_order_relaxed);
}

/* take and run segment s's runs: those of worker w's ranks, then any */
static void run_segment(struct team_walk *t, long s, long w, long *args)
{
    const program_header *p = t->p;
    const long *seg = p->segs + 3 * s;
    for (int any = 0; any < 2; any++)
        for (long r = seg[0]; r < seg[1]; r++) {
            const long *run = p->runs + 3 * r;
            if (!any && run[2] * p->team / p->nrank != w)
                continue;
            if (atomic_load_explicit(&t->failed, memory_order_relaxed))
                return;
            if (atomic_load_explicit(&p->taken[r], memory_order_relaxed)
                || atomic_exchange(&p->taken[r], 1))
                continue;
            for (long i = run[0]; i < run[1]; i++)
                if (run_row(p, i, args, t->stamps)) {
                    long none = 0;
                    atomic_compare_exchange_strong(&t->failed, &none, i + 1);
                    break;
                }
            atomic_fetch_add_explicit(&t->finished, 1, memory_order_release);
        }
}

static void *team_member(void *arg)
{
    const struct team_worker *m = arg;
    struct team_walk *t = m->t;
    long args[PROGRAM_ROW_WORDS];
    for (long s = 0; s < t->p->nseg; s++) {
        if (!await_count(t, &t->open, s + 1))
            break;
        run_segment(t, s, m->worker, args);
    }
    return NULL;
}

/* worker w > 0 on the w-th CPU of the affinity mask that is not the
 * caller's: a new thread is otherwise left beside its parent for
 * milliseconds, longer than a segment */
static void place_apart(pthread_attr_t *attr, long w)
{
#ifdef __linux__
    cpu_set_t mask, one;
    const int here = sched_getcpu();
    if (sched_getaffinity(0, sizeof mask, &mask))
        return;
    if (here >= 0)
        CPU_CLR(here, &mask);
    const int n = CPU_COUNT(&mask);
    for (int c = 0, k = 0; n && c < CPU_SETSIZE; c++)
        if (CPU_ISSET(c, &mask) && k++ == (w - 1) % n) {
            CPU_ZERO(&one);
            CPU_SET(c, &one);
            pthread_attr_setaffinity_np(attr, sizeof one, &one);
            return;
        }
#else
    (void)attr;
    (void)w;
#endif
}

/* worker 0: the caller, which also runs the exchange rows */
static long team_run(const program_header *p, double *stamps)
{
    struct team_walk t = {.p = p, .stamps = stamps};
    atomic_init(&t.open, 1);
    atomic_init(&t.finished, 0);
    atomic_init(&t.failed, 0);
    for (long r = 0; r < p->nrun; r++)
        atomic_store_explicit(&p->taken[r], 0, memory_order_relaxed);
    struct team_worker members[p->team];
    pthread_t threads[p->team];
    int started[p->team];
    for (long w = 1; w < p->team; w++) {
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        place_apart(&attr, w);
        members[w] = (struct team_worker){&t, w};
        /* a worker that cannot start leaves its runs to be taken */
        started[w] = !pthread_create(&threads[w], &attr, team_member,
                                     &members[w]);
        pthread_attr_destroy(&attr);
    }
    long args[PROGRAM_ROW_WORDS];
    for (long s = 0; s < p->nseg; s++) {
        const long *seg = p->segs + 3 * s;
        run_segment(&t, s, 0, args);
        if (!await_count(&t, &t.finished, seg[1]))
            break;
        if (seg[2] >= 0 && run_row(p, seg[2], args, stamps)) {
            atomic_store(&t.failed, seg[2] + 1);
            break;
        }
        atomic_store_explicit(&t.open, s + 2, memory_order_release);
    }
    for (long w = 1; w < p->team; w++)
        if (started[w])
            pthread_join(threads[w], NULL);
    return atomic_load(&t.failed);
}

long run_program(const program_header *p, const unsigned long *bases,
                 double *stamps)
{
    for (const long *r = p->relocs; r < p->relocs + 3 * p->nreloc; r += 3) {
        const unsigned long at = bases[r[1]] + r[2];
        memcpy(p->arena + r[0], &at, sizeof at);
    }
    return team_run(p, stamps);
}
