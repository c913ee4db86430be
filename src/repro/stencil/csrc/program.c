/* The walker of repro/core/program.py: the dynamics of a long step as a
 * table of rows, recorded once from the generator and replayed in one
 * call with the GIL released.  Every row is an entry, the arena offset of
 * its arguments (a struct, or the words of a call's positional
 * arguments) and their size.  A replay writes each relocated address (a
 * step's block base plus an offset), then runs the rows in order, each on
 * a copy of its arguments: a body may advance its struct
 * (acoustic_args.k), and the arena stays as recorded.  A row that returns
 * nonzero stops the walk: run_program returns its index + 1, else 0.
 * With `stamps`, the CLOCK_MONOTONIC time (time.perf_counter's clock)
 * before and after each row, in seconds. */
#include <time.h>

/* the largest row's arguments (repro.core.program.ROW_BYTES) */
#define PROGRAM_ROW_WORDS 512

typedef union {
    long l;
    double d;
    void *p;
} word;

static int row_context(void *args)
{
    const word *w = args;
    acoustic_context(w[0].l, w[1].l, w[2].l, w[3].d, w[4].d, w[5].p, w[6].p,
                     w[7].p, w[8].p, w[9].p, w[10].p, w[11].p, w[12].p,
                     w[13].p, w[14].p, w[15].p, w[16].p, w[17].p, w[18].p,
                     w[19].p);
    return 0;
}

static int row_stage(void *args)
{
    return slow_stage(args);
}

static int row_operator(void *args)
{
    const word *w = args;
    return acoustic_operator(w[0].l, w[1].l, w[2].d, w[3].p, w[4].p, w[5].p,
                             w[6].p, w[7].p, w[8].p, w[9].p, w[10].p,
                             w[11].p, w[12].p);
}

static int row_copy(void *args)
{
    const word *w = args;
    memcpy(w[0].p, w[1].p, w[2].l);
    return 0;
}

static int row_substep(void *args)
{
    acoustic_substep(args);
    return 0;
}

static int row_strips(void *args)
{
    const word *w = args;
    halo_strips(w[0].l, w[1].p, w[2].p);
    return 0;
}

static int row_moisture(void *args)
{
    moisture_finish(args);
    return 0;
}

/* in the order of repro.core.program.ENTRIES */
static int (*const program_rows[])(void *) = {
    row_context, row_stage, row_operator, row_copy, row_substep, row_strips,
    row_moisture,
};

/* repro.core.program._Header */
typedef struct {
    long nrow, nreloc;
    const long *rows;           /* entry, arena offset, bytes */
    const long *relocs;         /* arena offset, base, byte offset */
    char *arena;
} program_header;

static double monotonic(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)(t.tv_sec * 1000000000LL + t.tv_nsec) / 1e9;
}

long run_program(const program_header *p, const unsigned long *bases,
                 double *stamps)
{
    for (const long *r = p->relocs; r < p->relocs + 3 * p->nreloc; r += 3) {
        const unsigned long at = bases[r[1]] + r[2];
        memcpy(p->arena + r[0], &at, sizeof at);
    }
    word args[PROGRAM_ROW_WORDS];
    for (long i = 0; i < p->nrow; i++) {
        const long *row = p->rows + 3 * i;
        if (stamps)
            stamps[2 * i] = monotonic();
        memcpy(args, p->arena + row[1], row[2]);
        const int rc = program_rows[row[0]](args);
        if (stamps)
            stamps[2 * i + 1] = monotonic();
        if (rc)
            return i + 1;
    }
    return 0;
}
