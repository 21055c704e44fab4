/*
 * Native twin of repro.microarch.pipeline._walk.
 *
 * One pass of the trace-driven timing model over decoded trace columns,
 * statement for statement the state machine of the Python walk: fetch
 * bandwidth and I-cache refills, ROB and issue-queue windows, dependence
 * completions, first-minimum functional-unit choice, per-cycle issue
 * slots, L2 misses (suppressed or prefetched), in-order retire and
 * branch redirects.  The model is integer arithmetic only, so the two
 * walks agree bit for bit.
 *
 * The walk never reads outside its arrays: it checks every column value
 * it indexes with and every dependence distance, and returns an error
 * code instead.  It also refuses any input whose cycle counters could
 * leave the int64 range (see step_bound below).  The Python caller then
 * runs the Python walk, which is the reference.
 *
 * Build: cc -O2 -shared -fPIC -o walk.so walk.c
 */

#include <stdint.h>
#include <stdlib.h>

/* A cycle earlier than any real one: the occupant of a still-empty slot
 * (pipeline._EMPTY_SLOT). */
#define EMPTY_SLOT (-((int64_t)1 << 62))
/* Marks an unused entry of the issue-slot table (real cycles are >= 0). */
#define NO_CYCLE INT64_MIN
/* Every cycle the walk computes stays below this. */
#define CYCLE_LIMIT ((int64_t)1 << 62)
/* Largest configuration value accepted; keeps step_bound's sum exact. */
#define PARAM_LIMIT ((int64_t)1 << 40)
/* Longest trace: keeps i * 2654435761 below 2**63. */
#define MAX_INSTRUCTIONS ((int64_t)1 << 31)

#define N_KINDS 7
#define N_QUEUES 3
#define N_GROUPS 5

/* Layout of the params array (pipeline._native_params writes it). */
enum {
    P_FETCH_WIDTH,
    P_ISSUE_WIDTH,
    P_RETIRE_WIDTH,
    P_ROB_SIZE,
    P_QUEUE_SIZE,                      /* int, FP, memory */
    P_UNITS = P_QUEUE_SIZE + N_QUEUES, /* int ALU, int mul, FP add, FP mul, mem */
    P_FRONTEND = P_UNITS + N_GROUPS,   /* frontend depth + extra stage */
    P_REDIRECT,                        /* branch penalty + extra stage */
    P_L2_LATENCY,
    P_MEM_LATENCY,
    P_PREFETCH_CUT, /* an L2 miss is prefetched when (i*K) % 1000 < cut */
    P_SUPPRESS,     /* 1: L2 misses count as L2 hits */
    P_LATENCY,      /* execution latency per uop kind */
    N_PARAMS = P_LATENCY + N_KINDS
};

enum {
    WALK_OK = 0,
    WALK_BAD_ARGUMENT = 1, /* a length or count, or a width < 1 */
    WALK_BAD_COLUMN = 2,   /* a kind, queue, group or distance out of range */
    WALK_RANGE = 3,        /* cycles could leave the int64 range */
    WALK_NO_MEMORY = 4
};

/* Outputs, in pipeline._walk's return order. */
enum {
    OUT_CYCLES,
    OUT_L1_MISSES,
    OUT_L2_MISSES,
    OUT_BRANCH_FLUSHES,
    OUT_INT_QUEUE_WAITS,
    OUT_FP_QUEUE_WAITS,
    N_OUTPUTS
};

/* Issue-slot counts per cycle: an open-addressing table with room for
 * twice the trace length, since each instruction adds at most one cycle.
 * Counts are int64, so any issue width fits. */
typedef struct {
    int64_t *cycle;
    int64_t *count;
    uint64_t mask;
    int shift;
} IssueSlots;

static uint64_t slot_index(const IssueSlots *slots, int64_t cycle)
{
    uint64_t h = ((uint64_t)cycle * 0x9E3779B97F4A7C15ull) >> slots->shift;
    while (slots->cycle[h] != cycle && slots->cycle[h] != NO_CYCLE)
        h = (h + 1) & slots->mask;
    return h;
}

static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

static int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }

/* An upper bound on how far one instruction can push the latest cycle in
 * the machine state: a fetch refill and slot, the frontend, one issue
 * slot skipped per earlier instruction, the unit's busy cycle, the
 * longest execution and memory latency, the redirect and the retire
 * slot.  After n instructions every cycle is below n * step_bound. */
static int64_t step_bound(const int64_t *params, int64_t n)
{
    int64_t latency = 0;
    for (int k = 0; k < N_KINDS; ++k)
        latency = max64(latency, params[P_LATENCY + k]);
    return params[P_L2_LATENCY] + 1 + params[P_FRONTEND] + n + 1 + latency
           + max64(params[P_MEM_LATENCY], params[P_L2_LATENCY])
           + params[P_REDIRECT] + 2;
}

int repro_walk(
    int64_t n,
    const uint8_t *kind,
    const uint8_t *queue,
    const uint8_t *group,
    const int64_t *dep1,
    const int64_t *dep2,
    const uint8_t *icache,
    const uint8_t *miss1,
    const uint8_t *miss2,
    const uint8_t *flush,
    const int64_t *params,
    int64_t n_params,
    int64_t *out,
    int64_t n_out)
{
    if (n < 1 || n >= MAX_INSTRUCTIONS || n_params != N_PARAMS
        || n_out != N_OUTPUTS)
        return WALK_BAD_ARGUMENT;
    for (int p = 0; p < N_PARAMS; ++p)
        if (params[p] < 0 || params[p] > PARAM_LIMIT)
            return WALK_RANGE;
    for (int p = P_FETCH_WIDTH; p < P_FRONTEND; ++p)
        if (params[p] < 1)
            return WALK_BAD_ARGUMENT;
    if (step_bound(params, n) > CYCLE_LIMIT / n)
        return WALK_RANGE;

    const int64_t fetch_width = params[P_FETCH_WIDTH];
    const int64_t issue_width = params[P_ISSUE_WIDTH];
    const int64_t frontend = params[P_FRONTEND];
    const int64_t redirect_penalty = params[P_REDIRECT];
    const int64_t l2_latency = params[P_L2_LATENCY];
    const int64_t mem_latency = params[P_MEM_LATENCY];
    const int64_t prefetch_cut = params[P_PREFETCH_CUT];
    const int suppress = params[P_SUPPRESS] != 0;
    const int64_t *latency_of = params + P_LATENCY;

    /* A window or unit count above n behaves as n: a window that deep
     * only ever shows empty slots, and no more than n units are used. */
    const int64_t rob_size = min64(params[P_ROB_SIZE], n);
    const int64_t retire_width = min64(params[P_RETIRE_WIDTH], n);
    const int64_t retire_span = max64(rob_size, retire_width);
    int64_t queue_size[N_QUEUES], queue_base[N_QUEUES], queue_pos[N_QUEUES];
    int64_t queue_total = 0;
    for (int q = 0; q < N_QUEUES; ++q) {
        queue_size[q] = min64(params[P_QUEUE_SIZE + q], n);
        queue_base[q] = queue_total;
        queue_pos[q] = 0;
        queue_total += queue_size[q];
    }
    int64_t n_units[N_GROUPS], unit_base[N_GROUPS];
    int64_t unit_total = 0;
    for (int g = 0; g < N_GROUPS; ++g) {
        n_units[g] = min64(params[P_UNITS + g], n);
        unit_base[g] = unit_total;
        unit_total += n_units[g];
    }
    IssueSlots slots;
    slots.shift = 64;
    uint64_t capacity = 1;
    while (capacity < 2 * (uint64_t)n || capacity < 16) {
        capacity <<= 1;
        slots.shift -= 1;
    }
    slots.mask = capacity - 1;

    int64_t *completion = malloc((size_t)n * sizeof *completion);
    int64_t *retire_log = malloc((size_t)retire_span * sizeof *retire_log);
    int64_t *queue_log = malloc((size_t)queue_total * sizeof *queue_log);
    int64_t *fu_free = calloc((size_t)unit_total, sizeof *fu_free);
    slots.cycle = malloc((size_t)capacity * sizeof *slots.cycle);
    slots.count = calloc((size_t)capacity, sizeof *slots.count);
    int status = WALK_NO_MEMORY;
    if (!completion || !retire_log || !queue_log || !fu_free || !slots.cycle
        || !slots.count)
        goto release;
    for (int64_t k = 0; k < retire_span; ++k)
        retire_log[k] = EMPTY_SLOT;
    for (int64_t k = 0; k < queue_total; ++k)
        queue_log[k] = EMPTY_SLOT;
    for (uint64_t k = 0; k < capacity; ++k)
        slots.cycle[k] = NO_CYCLE;

    /* retire_log is a ring: retire_pos is where the next retire goes, so
     * log[-k] of the Python walk is retire_log[retire_pos - k] (mod span).
     * A queue ring's next write position holds its log[-size]. */
    int64_t retire_pos = 0;
    int64_t fetch_cycle = EMPTY_SLOT; /* fetch cycles never decrease */
    int64_t fetch_count = 0;
    int64_t fetch_ready = 0;
    int64_t l1_misses = 0, l2_misses = 0, branch_flushes = 0;
    int64_t queue_waits[N_QUEUES] = {0, 0, 0};
    status = WALK_BAD_COLUMN;

    for (int64_t i = 0; i < n; ++i) {
        const int k = kind[i], q = queue[i], g = group[i];
        const int64_t d1 = dep1[i], d2 = dep2[i];
        if (k >= N_KINDS || q >= N_QUEUES || g >= N_GROUPS || d1 < 0
            || d1 > i || d2 < 0 || d2 > i)
            goto release;

        /* ---------------- fetch ---------------- */
        int64_t t_fetch = fetch_ready;
        if (icache[i])
            t_fetch += l2_latency;
        if (t_fetch != fetch_cycle) {
            fetch_cycle = t_fetch;
            fetch_count = 1;
        } else if (fetch_count < fetch_width) {
            fetch_count += 1;
        } else {
            t_fetch += 1;
            fetch_cycle = t_fetch;
            fetch_count = 1;
        }
        fetch_ready = t_fetch;

        /* ---------------- dispatch ---------------- */
        int64_t dispatch = t_fetch + frontend;
        int64_t at = retire_pos - rob_size;
        int64_t blocker = retire_log[at < 0 ? at + retire_span : at];
        if (blocker > dispatch)
            dispatch = blocker;
        int64_t *log = queue_log + queue_base[q];
        blocker = log[queue_pos[q]];
        if (blocker > dispatch) {
            dispatch = blocker;
            queue_waits[q] += 1;
        }

        /* ---------------- issue ---------------- */
        int64_t ready = dispatch;
        if (d1 && completion[i - d1] > ready)
            ready = completion[i - d1];
        if (d2 && completion[i - d2] > ready)
            ready = completion[i - d2];
        int64_t *units = fu_free + unit_base[g];
        int64_t unit = 0;
        int64_t unit_free = units[0];
        for (int64_t other = 1; other < n_units[g]; ++other) {
            if (units[other] < unit_free) {
                unit_free = units[other];
                unit = other;
            }
        }
        int64_t t_issue = ready > unit_free ? ready : unit_free;
        uint64_t slot = slot_index(&slots, t_issue);
        while (slots.count[slot] >= issue_width) {
            t_issue += 1;
            slot = slot_index(&slots, t_issue);
        }
        slots.cycle[slot] = t_issue;
        slots.count[slot] += 1;
        units[unit] = t_issue + 1;
        log[queue_pos[q]] = t_issue;
        if (++queue_pos[q] == queue_size[q])
            queue_pos[q] = 0;

        /* ---------------- execute / memory ---------------- */
        int64_t done = t_issue + latency_of[k];
        if (miss1[i]) {
            l1_misses += 1;
            if (miss2[i] && !suppress
                && !((i * 2654435761LL) % 1000 < prefetch_cut)) {
                l2_misses += 1;
                done += mem_latency;
            } else {
                done += l2_latency;
            }
        }
        completion[i] = done;

        /* ---------------- retire (in order) ---------------- */
        int64_t t_retire = retire_log[retire_pos == 0 ? retire_span - 1
                                                      : retire_pos - 1];
        if (done > t_retire)
            t_retire = done;
        at = retire_pos - retire_width;
        int64_t retire_slot = retire_log[at < 0 ? at + retire_span : at] + 1;
        if (retire_slot > t_retire)
            t_retire = retire_slot;
        retire_log[retire_pos] = t_retire;
        if (++retire_pos == retire_span)
            retire_pos = 0;

        /* ---------------- branch misprediction ---------------- */
        if (flush[i]) {
            branch_flushes += 1;
            int64_t redirect = done + redirect_penalty;
            if (redirect > fetch_ready)
                fetch_ready = redirect;
        }
    }

    out[OUT_CYCLES] = retire_log[retire_pos == 0 ? retire_span - 1
                                                 : retire_pos - 1] + 1;
    out[OUT_L1_MISSES] = l1_misses;
    out[OUT_L2_MISSES] = l2_misses;
    out[OUT_BRANCH_FLUSHES] = branch_flushes;
    out[OUT_INT_QUEUE_WAITS] = queue_waits[0];
    out[OUT_FP_QUEUE_WAITS] = queue_waits[1];
    status = WALK_OK;

release:
    free(completion);
    free(retire_log);
    free(queue_log);
    free(fu_free);
    free(slots.cycle);
    free(slots.count);
    return status;
}
