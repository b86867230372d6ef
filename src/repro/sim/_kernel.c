/* Native replay kernel: `run_flat_replay`, the OO engine's event loop
 * specialized for replay.  (The stored-schedule row decoder and encoder,
 * `decode_rows` and `encode_rows`, follow it at the end of this file; see
 * the comments there.)
 *
 * This is the inner loop of the "compiled" backend
 * (repro.core.replay_compiled).  A replay has a much smaller state space
 * than the general simulator — no transports, infinite buffers, no
 * preemption, source-routed packets whose ingress times, sizes, routes and
 * header keys are known up front — so Simulator + OutputPort + Scheduler +
 * Packet collapse into arrays indexed by packet-hop f: hop_port, hop_tx,
 * hop_prop, and hop_key for the static-key modes (LSTF keys are computed
 * inline from the per-packet slack).  The loop replays the OO engine's
 * choreography exactly, so its output is bit-identical to the reference
 * engine's.  Each load-bearing detail mirrors one line of the OO code:
 *
 * - One event heap of (time, seq, code): hop f's finish is f, the arrival
 *   at hop fn is H + fn, packet j's destination arrival is 2H + j, the
 *   injector cursor is INJ and outage toggle k is INJ + 1 + k.  The cursor
 *   draws seqs from the front counter (Simulator._front_sequence), every
 *   other event from the normal counter, in the order the OO callbacks
 *   call Simulator.schedule, and every event is counted as Simulator.run
 *   counts it.
 * - A finish pushes the downstream arrival *before* the port's next
 *   transmission (OutputPort._finish_transmission).
 * - Per-port queues order (key, port_seq): PriorityScheduler's heap, the
 *   port seq allocated at enqueue.  An idle port serves an arrival at once;
 *   LSTF's `slack -= t - et` is skipped there (the wait is exactly 0.0).
 * - A fault plan replays sim/port.py + faults/injector.py.  Toggles are
 *   pushed after the cursor is armed and before the first pop, so toggle k
 *   carries seq k (FaultInjector.install: links in plan order, windows
 *   sorted, down before up).  cur[p] is port p's hop in flight, IDLE or
 *   DOWN; a down-toggle overwrites it, which lazily cancels the finish, and
 *   the stale finish is popped *uncounted*.  A down port queues arrivals; an
 *   up-toggle restarts service through the ordinary dequeue.  At every
 *   finish each of the port's drop filters is called, drop(None, t), none
 *   skipped; a destroyed packet pushes no arrival and consumes no seq.
 *
 * Float-determinism notes, each load-bearing:
 *
 * - The loop performs only double additions/subtractions, in CPython's
 *   association order: `t + hop_prop[f]`, `t + hop_tx[f]`,
 *   `(slack + t) + tx`, `slack -= t - et`.  With no multiplications no FMA
 *   contraction is possible; the build passes -ffp-contract=off anyway.
 * - (time, seq) / (key, seq) with unique seqs is a strict total order, so
 *   any correct binary heap pops as heapq would over the same tuples.  Keys
 *   may be +inf (IEEE-754 compares it as Python does).
 * - Every input is copied into C arrays and the drop-filter tuples are held
 *   by strong reference, so a filter calling back into Python cannot change
 *   the loop's state.  The `slack` list is read, never mutated.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Event heap: (time, seq, code) — seq unique, code never compared.   */
/* ------------------------------------------------------------------ */
typedef struct {
    double t;
    int64_t seq;
    int64_t code;
} Ev;

typedef struct {
    Ev *items;
    Py_ssize_t size;
    Py_ssize_t cap;
} EvHeap;

static inline int
ev_lt(const Ev *a, const Ev *b)
{
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

static int
ev_push(EvHeap *h, double t, int64_t seq, int64_t code)
{
    Py_ssize_t i, parent;
    Ev item;
    if (h->size == h->cap) {
        Py_ssize_t cap = h->cap ? h->cap * 2 : 64;
        Ev *items = (Ev *)realloc(h->items, (size_t)cap * sizeof(Ev));
        if (items == NULL)
            return -1;
        h->items = items;
        h->cap = cap;
    }
    item.t = t;
    item.seq = seq;
    item.code = code;
    i = h->size++;
    while (i > 0) {
        parent = (i - 1) >> 1;
        if (!ev_lt(&item, &h->items[parent]))
            break;
        h->items[i] = h->items[parent];
        i = parent;
    }
    h->items[i] = item;
    return 0;
}

static Ev
ev_pop(EvHeap *h)
{
    Ev top = h->items[0];
    Ev last = h->items[--h->size];
    Py_ssize_t i = 0, child;
    Py_ssize_t n = h->size;
    while ((child = 2 * i + 1) < n) {
        if (child + 1 < n && ev_lt(&h->items[child + 1], &h->items[child]))
            child += 1;
        if (!ev_lt(&h->items[child], &last))
            break;
        h->items[i] = h->items[child];
        i = child;
    }
    h->items[i] = last;
    return top;
}

/* ------------------------------------------------------------------ */
/* Per-port priority queues: (key, port_seq, hop, enqueue_time).      */
/* ------------------------------------------------------------------ */
typedef struct {
    double key;
    int64_t seq;
    int64_t f;
    double et;
} Pe;

typedef struct {
    Pe *items;
    Py_ssize_t size;
    Py_ssize_t cap;
} PeHeap;

static inline int
pe_lt(const Pe *a, const Pe *b)
{
    return a->key < b->key || (a->key == b->key && a->seq < b->seq);
}

static int
pe_push(PeHeap *h, double key, int64_t seq, int64_t f, double et)
{
    Py_ssize_t i, parent;
    Pe item;
    if (h->size == h->cap) {
        Py_ssize_t cap = h->cap ? h->cap * 2 : 8;
        Pe *items = (Pe *)realloc(h->items, (size_t)cap * sizeof(Pe));
        if (items == NULL)
            return -1;
        h->items = items;
        h->cap = cap;
    }
    item.key = key;
    item.seq = seq;
    item.f = f;
    item.et = et;
    i = h->size++;
    while (i > 0) {
        parent = (i - 1) >> 1;
        if (!pe_lt(&item, &h->items[parent]))
            break;
        h->items[i] = h->items[parent];
        i = parent;
    }
    h->items[i] = item;
    return 0;
}

static Pe
pe_pop(PeHeap *h)
{
    Pe top = h->items[0];
    Pe last = h->items[--h->size];
    Py_ssize_t i = 0, child;
    Py_ssize_t n = h->size;
    while ((child = 2 * i + 1) < n) {
        if (child + 1 < n && pe_lt(&h->items[child + 1], &h->items[child]))
            child += 1;
        if (!pe_lt(&h->items[child], &last))
            break;
        h->items[i] = h->items[child];
        i = child;
    }
    h->items[i] = last;
    return top;
}

/* ------------------------------------------------------------------ */
/* Input conversion helpers.                                          */
/* ------------------------------------------------------------------ */
static double *
as_double_array(PyObject *seq, const char *name, Py_ssize_t *len_out)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    Py_ssize_t n, i;
    double *out;
    if (fast == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    out = (double *)malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (out == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, i));
        if (out[i] == -1.0 && PyErr_Occurred()) {
            PyErr_Format(PyExc_TypeError, "%s[%zd] is not a float", name, i);
            free(out);
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    if (len_out != NULL)
        *len_out = n;
    return out;
}

static int64_t *
as_int64_array(PyObject *seq, const char *name, Py_ssize_t *len_out)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    Py_ssize_t n, i;
    int64_t *out;
    if (fast == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    out = (int64_t *)malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (out == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (i = 0; i < n; i++) {
        out[i] = (int64_t)PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (out[i] == -1 && PyErr_Occurred()) {
            PyErr_Format(PyExc_TypeError, "%s[%zd] is not an int", name, i);
            free(out);
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    if (len_out != NULL)
        *len_out = n;
    return out;
}

/* 1 if a hop array holds exactly total_hops entries, else ValueError and 0. */
static int
hop_array_fits(const char *name, Py_ssize_t len, Py_ssize_t total_hops)
{
    if (len == total_hops)
        return 1;
    PyErr_Format(PyExc_ValueError,
                 "%s must have %zd entries, got %zd", name, total_hops, len);
    return 0;
}

static PyObject *
double_array_to_list(const double *values, Py_ssize_t n)
{
    PyObject *list = PyList_New(n);
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        PyObject *value = PyFloat_FromDouble(values[i]);
        if (value == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, value);
    }
    return list;
}

/* ------------------------------------------------------------------ */
/* run_flat_replay                                                    */
/* ------------------------------------------------------------------ */
/* PortFaultState.intercepts: each of the port's drop filters is called as
 * drop(None, t) — stateful ones advance once per packet, so none is
 * skipped.  1 if any destroys the packet, 0 if none, -1 on an exception. */
static int
port_drops(PyObject *filters, double t)
{
    Py_ssize_t i, n = PyTuple_GET_SIZE(filters);
    int destroyed = 0;
    PyObject *when;
    if (n == 0)
        return 0;  /* an outage-only port */
    if ((when = PyFloat_FromDouble(t)) == NULL)
        return -1;
    for (i = 0; i < n && destroyed >= 0; i++) {
        PyObject *r = PyObject_CallFunctionObjArgs(PyTuple_GET_ITEM(filters, i),
                                                   Py_None, when, NULL);
        int truth = r == NULL ? -1 : PyObject_IsTrue(r);
        Py_XDECREF(r);
        destroyed = truth < 0 ? -1 : (destroyed | truth);
    }
    Py_DECREF(when);
    return destroyed;
}

/* A fault plan, ((port, filters, windows), ...): each port's filters as a
 * tuple in filters[port] (a new reference) and its (down, up) windows as
 * toggles appended to *toggle_t / *toggle_port, down before up.  0 or -1. */
static int
load_faults(PyObject *plan, Py_ssize_t num_ports, PyObject **filters,
            double **toggle_t, int64_t **toggle_port, Py_ssize_t *toggles)
{
    PyObject *fast = PySequence_Fast(plan, "faults must be a sequence");
    Py_ssize_t i, k;
    if (fast == NULL)
        return -1;
    for (i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
        Py_ssize_t port;
        PyObject *port_filters, *windows, *wins;
        double *times;
        int64_t *ports;
        if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(fast, i), "nOO:faults",
                              &port, &port_filters, &windows))
            goto fail;
        if (port < 0 || port >= num_ports) {
            PyErr_Format(PyExc_ValueError,
                         "faulted port %zd out of range for %zd ports",
                         port, num_ports);
            goto fail;
        }
        Py_XSETREF(filters[port], PySequence_Tuple(port_filters));
        wins = PySequence_Fast(windows, "fault windows must be a sequence");
        if (filters[port] == NULL || wins == NULL) {
            Py_XDECREF(wins);
            goto fail;
        }
        k = *toggles + 2 * PySequence_Fast_GET_SIZE(wins) + 1;
        times = (double *)realloc(*toggle_t, (size_t)k * sizeof(double));
        if (times != NULL)
            *toggle_t = times;
        ports = (int64_t *)realloc(*toggle_port, (size_t)k * sizeof(int64_t));
        if (ports != NULL)
            *toggle_port = ports;
        if (times == NULL || ports == NULL) {
            Py_DECREF(wins);
            PyErr_NoMemory();
            goto fail;
        }
        for (k = 0; k < PySequence_Fast_GET_SIZE(wins); k++) {
            double *at = &times[*toggles];
            if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(wins, k), "dd:window",
                                  &at[0], &at[1])) {
                Py_DECREF(wins);
                goto fail;
            }
            ports[(*toggles)++] = port;
            ports[(*toggles)++] = port;
        }
        Py_DECREF(wins);
    }
    Py_DECREF(fast);
    return 0;
fail:
    Py_DECREF(fast);
    return -1;
}

static PyObject *
kernel_run_flat_replay(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "ingress", "off", "hop_pkt", "hop_port", "hop_tx", "hop_prop",
        "num_ports", "slack", "hop_key", "max_events", "faults", NULL,
    };
    PyObject *ingress_obj, *off_obj, *hop_pkt_obj, *hop_port_obj;
    PyObject *hop_tx_obj, *hop_prop_obj;
    PyObject *slack_obj = Py_None, *hop_key_obj = Py_None;
    PyObject *max_events_obj = Py_None, *faults_obj = Py_None;
    Py_ssize_t num_ports;

    double *ingress = NULL, *hop_tx = NULL, *hop_prop = NULL;
    double *slack = NULL, *hop_key = NULL, *toggle_t = NULL;
    int64_t *off = NULL, *hop_pkt = NULL, *hop_port = NULL;
    int64_t *nxt = NULL, *port_seq = NULL, *cur = NULL, *toggle_port = NULL;
    double *arr = NULL, *start = NULL, *dep = NULL, *egress = NULL;
    char *has_egress = NULL;
    PyObject **filters = NULL;
    EvHeap heap = {NULL, 0, 0};
    PeHeap *ports = NULL;
    PyObject *result = NULL;
    Py_ssize_t n = 0, off_len = 0, total_hops = 0, hop_len = 0, p_idx;
    Py_ssize_t toggles = 0;
    int64_t H, H2, INJ, seq, fseq, cursor, executed, budget;
    const int64_t IDLE = -1, DOWN = -2;
    int lstf;

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OOOOOOn|OOOO:run_flat_replay", keywords,
            &ingress_obj, &off_obj, &hop_pkt_obj, &hop_port_obj,
            &hop_tx_obj, &hop_prop_obj, &num_ports,
            &slack_obj, &hop_key_obj, &max_events_obj, &faults_obj))
        return NULL;
    if (num_ports < 0)
        num_ports = 0;
    ingress = as_double_array(ingress_obj, "ingress", &n);
    if (ingress == NULL)
        goto done;
    off = as_int64_array(off_obj, "off", &off_len);
    if (off == NULL)
        goto done;
    if (off_len != n + 1) {
        PyErr_Format(PyExc_ValueError,
                     "off must have %zd entries, got %zd", n + 1, off_len);
        goto done;
    }
    if (off[0] != 0) {
        PyErr_Format(PyExc_ValueError,
                     "off[0] must be 0, got %lld", (long long)off[0]);
        goto done;
    }
    /* The loop indexes the four hop arrays unchecked: each must hold
     * exactly off[n] entries (packets with no hops are refused below). */
    total_hops = (Py_ssize_t)off[n];
    hop_pkt = as_int64_array(hop_pkt_obj, "hop_pkt", &hop_len);
    if (hop_pkt == NULL || !hop_array_fits("hop_pkt", hop_len, total_hops))
        goto done;
    hop_port = as_int64_array(hop_port_obj, "hop_port", &hop_len);
    if (hop_port == NULL || !hop_array_fits("hop_port", hop_len, total_hops))
        goto done;
    hop_tx = as_double_array(hop_tx_obj, "hop_tx", &hop_len);
    if (hop_tx == NULL || !hop_array_fits("hop_tx", hop_len, total_hops))
        goto done;
    hop_prop = as_double_array(hop_prop_obj, "hop_prop", &hop_len);
    if (hop_prop == NULL || !hop_array_fits("hop_prop", hop_len, total_hops))
        goto done;
    lstf = slack_obj != Py_None;
    if (lstf) {
        Py_ssize_t slack_len;
        slack = as_double_array(slack_obj, "slack", &slack_len);
        if (slack == NULL)
            goto done;
        if (slack_len != n) {
            PyErr_Format(PyExc_ValueError,
                         "slack must have %zd entries, got %zd", n, slack_len);
            goto done;
        }
    } else {
        Py_ssize_t key_len;
        if (hop_key_obj == Py_None) {
            PyErr_SetString(PyExc_ValueError,
                            "hop_key is required when slack is None");
            goto done;
        }
        hop_key = as_double_array(hop_key_obj, "hop_key", &key_len);
        if (hop_key == NULL)
            goto done;
        if (key_len != total_hops) {
            PyErr_Format(PyExc_ValueError,
                         "hop_key must have %zd entries, got %zd",
                         total_hops, key_len);
            goto done;
        }
    }
    if (max_events_obj == Py_None) {
        budget = INT64_MAX;
    } else {
        int overflow = 0;
        budget = (int64_t)PyLong_AsLongLongAndOverflow(max_events_obj, &overflow);
        if (budget == -1 && PyErr_Occurred())
            goto done;
        if (overflow > 0)
            budget = INT64_MAX;  /* unreachably large: effectively unbudgeted */
        else if (overflow < 0 || budget < 0)
            budget = 0;
    }

    /* Output arrays (zero-initialized: a hop never served stays 0.0). */
    arr = (double *)calloc((size_t)(total_hops > 0 ? total_hops : 1), sizeof(double));
    start = (double *)calloc((size_t)(total_hops > 0 ? total_hops : 1), sizeof(double));
    dep = (double *)calloc((size_t)(total_hops > 0 ? total_hops : 1), sizeof(double));
    egress = (double *)calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    has_egress = (char *)calloc((size_t)(n > 0 ? n : 1), sizeof(char));
    if (arr == NULL || start == NULL || dep == NULL || egress == NULL ||
        has_egress == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    executed = 0;

    /* Bounds pre-check: every hop index the loop will touch must be valid,
     * so the loop itself can run unchecked. */
    for (p_idx = 0; p_idx < total_hops; p_idx++) {
        if (hop_port[p_idx] < 0 || hop_port[p_idx] >= (int64_t)num_ports) {
            PyErr_Format(PyExc_ValueError,
                         "hop_port[%zd]=%lld out of range for %zd ports",
                         p_idx, (long long)hop_port[p_idx], num_ports);
            goto done;
        }
        if (hop_pkt[p_idx] < 0 || hop_pkt[p_idx] >= (int64_t)n) {
            PyErr_Format(PyExc_ValueError,
                         "hop_pkt[%zd]=%lld out of range for %zd packets",
                         p_idx, (long long)hop_pkt[p_idx], n);
            goto done;
        }
    }
    for (p_idx = 0; p_idx < n; p_idx++) {
        if (off[p_idx] >= off[p_idx + 1]) {
            PyErr_Format(PyExc_ValueError,
                         "packet %zd has no hops (off[%zd]=%lld, off[%zd]=%lld)",
                         p_idx, p_idx, (long long)off[p_idx],
                         p_idx + 1, (long long)off[p_idx + 1]);
            goto done;
        }
    }

    nxt = (int64_t *)malloc((size_t)(total_hops > 0 ? total_hops : 1) * sizeof(int64_t));
    cur = (int64_t *)malloc((size_t)(num_ports > 0 ? num_ports : 1) * sizeof(int64_t));
    port_seq = (int64_t *)calloc((size_t)(num_ports > 0 ? num_ports : 1),
                                 sizeof(int64_t));
    ports = (PeHeap *)calloc((size_t)(num_ports > 0 ? num_ports : 1),
                             sizeof(PeHeap));
    filters = (PyObject **)calloc((size_t)(num_ports > 0 ? num_ports : 1),
                                  sizeof(PyObject *));
    if (nxt == NULL || cur == NULL || port_seq == NULL || ports == NULL ||
        filters == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (faults_obj != Py_None &&
        load_faults(faults_obj, num_ports, filters, &toggle_t, &toggle_port,
                    &toggles) < 0)
        goto done;
    for (p_idx = 0; p_idx < num_ports; p_idx++)
        cur[p_idx] = IDLE;
    H = (int64_t)total_hops;
    H2 = 2 * H;
    INJ = H2 + (int64_t)n;
    /* nxt[f]: the arrival code hop f's finish pushes — the next hop's, or
     * the destination's on a packet's last hop. */
    for (p_idx = 0; p_idx < total_hops; p_idx++)
        nxt[p_idx] = H + (int64_t)p_idx + 1;
    for (p_idx = 0; p_idx < n; p_idx++)
        nxt[off[p_idx + 1] - 1] = H2 + (int64_t)p_idx;

    fseq = -((int64_t)1 << 62);  /* Simulator._front_sequence */
    cursor = 0;

    /* ReplayInjector.install(): arm the cursor at the first ingress time
     * (an empty replay arms nothing; a fault plan's toggles still fire). */
    if (n > 0) {
        if (ev_push(&heap, ingress[0], fseq, INJ) < 0)
            goto nomem;
        fseq += 1;
    }
    /* FaultInjector.install(), after the cursor: toggle k takes seq k of
     * Simulator._sequence, the counter every later event draws from. */
    for (seq = 0; seq < (int64_t)toggles; seq++)
        if (ev_push(&heap, toggle_t[seq], seq, INJ + 1 + seq) < 0)
            goto nomem;

/* Router.receive, or the injector: hop `fn` of packet `j` reaches its port
 * at t — queued behind the hop in flight (or a down port), else served. */
#define ARRIVE(fn, j)                                                      \
    do {                                                                   \
        int64_t f_ = (fn), p_ = hop_port[f_], s_ = port_seq[p_]++;         \
        arr[f_] = t;                                                       \
        if (cur[p_] != IDLE) {                                             \
            double key_ = lstf ? (slack[j] + t) + hop_tx[f_] : hop_key[f_]; \
            if (pe_push(&ports[p_], key_, s_, f_, t) < 0)                  \
                goto nomem;                                                \
        } else {                                                           \
            start[f_] = t;                                                 \
            cur[p_] = f_;                                                  \
            if (ev_push(&heap, t + hop_tx[f_], seq, f_) < 0)               \
                goto nomem;                                                \
            seq += 1;                                                      \
        }                                                                  \
    } while (0)

/* OutputPort._start_next on port `p` at t: serve the queue head (the LSTF
 * dequeue charges its whole wait to the slack), else go idle. */
#define START_NEXT(p)                                                      \
    do {                                                                   \
        if (ports[p].size > 0) {                                           \
            Pe head_ = pe_pop(&ports[p]);                                  \
            if (lstf)                                                      \
                slack[hop_pkt[head_.f]] -= t - head_.et;                   \
            start[head_.f] = t;                                            \
            cur[p] = head_.f;                                              \
            if (ev_push(&heap, t + hop_tx[head_.f], seq, head_.f) < 0)     \
                goto nomem;                                                \
            seq += 1;                                                      \
        } else {                                                           \
            cur[p] = IDLE;                                                 \
        }                                                                  \
    } while (0)

    while (heap.size > 0 && executed < budget) {
        Ev ev = ev_pop(&heap);
        double t = ev.t;
        int64_t code = ev.code;
        executed += 1;

        if (code < H) {
            /* OutputPort._finish_transmission for hop f on its port. */
            int64_t f = code, p = hop_port[f];
            int destroyed = 0;
            if (cur[p] != f) {
                /* Cancelled by a down-toggle (OutputPort.fault_interrupt):
                 * Simulator.run discards a cancelled event uncounted. */
                executed -= 1;
                continue;
            }
            dep[f] = t;
            if (filters[p] != NULL && (destroyed = port_drops(filters[p], t)) < 0)
                goto done;
            if (!destroyed) {
                /* Receive is scheduled *before* the port picks its next
                 * packet; a destroyed packet schedules nothing. */
                if (ev_push(&heap, t + hop_prop[f], seq, nxt[f]) < 0)
                    goto nomem;
                seq += 1;
            }
            START_NEXT(p);

        } else if (code < H2) {
            /* Link delivery at a router: Router.receive. */
            ARRIVE(code - H, hop_pkt[code - H]);

        } else if (code < INJ) {
            /* Link delivery at the destination: Host.receive. */
            egress[code - H2] = t;
            has_egress[code - H2] = 1;

        } else if (code == INJ) {
            /* ReplayInjector._advance: inject every record due now, then
             * re-arm the cursor at the next ingress time (front range). */
            while (cursor < (int64_t)n && ingress[cursor] <= t) {
                cursor += 1;
                ARRIVE(off[cursor - 1], cursor - 1);
            }
            if (cursor < (int64_t)n) {
                if (ev_push(&heap, ingress[cursor], fseq, INJ) < 0)
                    goto nomem;
                fseq += 1;
            }

        } else {
            /* Outage toggle k (code INJ + 1 + k): even = down, odd = up. */
            int64_t k = code - INJ - 1, p = toggle_port[k];
            if (!(k & 1))
                /* FaultInjector._link_down: the packet in flight is
                 * destroyed (its finish is now stale) and the queue held;
                 * a port already down stays down. */
                cur[p] = DOWN;
            else if (cur[p] == DOWN)
                /* FaultInjector._link_up -> OutputPort._start_next. */
                START_NEXT(p);
        }
    }
#undef ARRIVE
#undef START_NEXT

    {
        PyObject *arr_list = NULL, *start_list = NULL, *dep_list = NULL;
        PyObject *egress_list = NULL, *executed_obj = NULL;
        Py_ssize_t i;
        arr_list = double_array_to_list(arr, total_hops);
        start_list = double_array_to_list(start, total_hops);
        dep_list = double_array_to_list(dep, total_hops);
        egress_list = PyList_New(n);
        executed_obj = PyLong_FromLongLong((long long)executed);
        if (arr_list == NULL || start_list == NULL || dep_list == NULL ||
            egress_list == NULL || executed_obj == NULL)
            goto build_fail;
        for (i = 0; i < n; i++) {
            PyObject *value;
            if (has_egress[i]) {
                value = PyFloat_FromDouble(egress[i]);
                if (value == NULL)
                    goto build_fail;
            } else {
                value = Py_None;
                Py_INCREF(value);
            }
            PyList_SET_ITEM(egress_list, i, value);
        }
        result = PyTuple_Pack(5, arr_list, start_list, dep_list, egress_list,
                              executed_obj);
    build_fail:
        Py_XDECREF(arr_list);
        Py_XDECREF(start_list);
        Py_XDECREF(dep_list);
        Py_XDECREF(egress_list);
        Py_XDECREF(executed_obj);
    }
    goto done;

nomem:
    PyErr_NoMemory();

done:
    free(ingress);
    free(off);
    free(hop_pkt);
    free(hop_port);
    free(hop_tx);
    free(hop_prop);
    free(slack);
    free(hop_key);
    free(nxt);
    free(cur);
    free(toggle_t);
    free(toggle_port);
    free(port_seq);
    free(arr);
    free(start);
    free(dep);
    free(egress);
    free(has_egress);
    free(heap.items);
    if (ports != NULL) {
        for (p_idx = 0; p_idx < num_ports; p_idx++)
            free(ports[p_idx].items);
        free(ports);
    }
    if (filters != NULL) {
        for (p_idx = 0; p_idx < num_ports; p_idx++)
            Py_XDECREF(filters[p_idx]);
        free(filters);
    }
    return result;
}

PyDoc_STRVAR(run_flat_replay_doc,
"run_flat_replay(ingress, off, hop_pkt, hop_port, hop_tx, hop_prop,\n"
"                num_ports, slack, hop_key, max_events=None, faults=None)\n"
"--\n\n"
"Replay flat per-packet-hop arrays to completion, or for max_events events.\n"
"slack (LSTF) or hop_key (static keys) orders each port's queue; faults is\n"
"((port, drop_filters, outage_windows), ...) in install order.  Returns\n"
"(arrival, start_service, departure, egress, executed): per-hop timings,\n"
"per-packet egress (None: destroyed, or in flight when the budget ran out)\n"
"and the events executed, bit-identical to the OO engine's.");

/* ------------------------------------------------------------------ */
/* decode_rows: repro-schedule/1 row lines straight into columns.     */
/* ------------------------------------------------------------------ */
/*
 * The storage half of this module.  core/schedule.py::_decoded_parts cuts
 * a stored schedule's decompressed text into blocks of complete lines and
 * hands each block here; the rows land directly in the 15 ScheduleColumns
 * lists, with no row dict, hop list or column pass in between.
 *
 * Exactness is by construction: every value is what json's C scanner
 * makes of the same bytes.  A number is first matched against the JSON
 * number grammar; a float is then converted by PyOS_string_to_double (what
 * float() and json use), an int of at most 18 digits exactly in a C
 * integer, a longer one by PyLong_FromString; null is None; a string is
 * taken only when it is ASCII without escapes.  Everything else declines
 * the whole block — the caller then decodes the same lines with json, the
 * reference, which either agrees or raises the error naming the packet:
 * NaN, Infinity, true, false, an escape or a non-ASCII byte, an unknown,
 * duplicate or missing key, a path element that is not a string, a hop
 * that is not 4 scalars, a non-int packet_id, a non-numeric ingress_time
 * or output_time, a line that is not one object.
 *
 * Lines end at '\n' (a '\r' just before it is dropped); between tokens
 * only ' ' and '\t' are whitespace, so a lone '\r' — which the reference's
 * universal newlines would treat as a line break — declines too.  Node
 * names and routes are interned in the caller's memo dict; object identity
 * is not part of the contract.
 */

/* Row keys: the first ten in ScheduleColumns order (their column index). */
enum {
    K_PACKET_ID, K_FLOW_ID, K_SRC, K_DST, K_SIZE_BYTES, K_INGRESS_TIME,
    K_OUTPUT_TIME, K_PATH, K_FLOW_SIZE_BYTES, K_DEADLINE, K_HOPS, N_KEYS
};
/* Columns after the per-packet ten: hop_offset, then the four per-hop. */
enum { C_HOP_OFFSET = 10, C_HOP_NODE = 11, N_COLUMNS = 15 };

static const struct {
    const char *name;
    Py_ssize_t len;
} row_keys[N_KEYS] = {
    {"packet_id", 9}, {"flow_id", 7}, {"src", 3}, {"dst", 3},
    {"size_bytes", 10}, {"ingress_time", 12}, {"output_time", 11},
    {"path", 4}, {"flow_size_bytes", 15}, {"deadline", 8}, {"hops", 4},
};

/* Every key but flow_size_bytes and deadline (absent: None). */
#define REQUIRED_KEYS \
    (((1u << N_KEYS) - 1) & ~((1u << K_FLOW_SIZE_BYTES) | (1u << K_DEADLINE)))

/* Values made earlier in this block, direct-mapped by their bytes: a
 * repeated node name, or a repeated timestamp (a hop's start of service is
 * often its arrival, a port's next start its last departure), costs one
 * probe instead of a conversion.  A key is the value's span in the block —
 * a string's with its opening quote, so a string never meets a number —
 * and the block outlives the cache.  A miss only converts again. */
#define RECENT_BITS 10

typedef struct {
    const char *s;
    Py_ssize_t n;
    PyObject *value;    /* strong reference; NULL: an empty slot */
} Recent;

static Recent *
recent_slot(Recent *recent, const char *s, Py_ssize_t n)
{
    uint64_t tail = 0;  /* the span's last 8 bytes: where values differ */
    memcpy(&tail, n >= 8 ? s + n - 8 : s, (size_t)(n >= 8 ? 8 : n));
    return &recent[((tail ^ (uint64_t)n) * 0x9E3779B97F4A7C15ULL) >> (64 - RECENT_BITS)];
}

/* The value `slot` holds for s[:n] (a new reference), else NULL. */
static PyObject *
recent_get(Recent *slot, const char *s, Py_ssize_t n)
{
    if (slot->value == NULL || slot->n != n || memcmp(slot->s, s, (size_t)n) != 0)
        return NULL;
    Py_INCREF(slot->value);
    return slot->value;
}

static void
recent_put(Recent *slot, const char *s, Py_ssize_t n, PyObject *value)
{
    PyObject *old = slot->value;
    Py_INCREF(value);
    slot->s = s;
    slot->n = n;
    slot->value = value;
    Py_XDECREF(old);
}

typedef struct {
    const char *line;   /* start of the current line */
    const char *p;      /* cursor */
    const char *end;    /* end of the line's content (terminator excluded) */
    PyObject *memo;     /* interned strings and routes, shared across blocks */
    PyObject *route;    /* scratch list the current path is collected in */
    Recent *recent;     /* 1 << RECENT_BITS slots */
    const char *why;    /* what declined the block; NULL on a Python error */
    const char *key;    /* the key it concerns, if any */
} Reader;

/* Decline the block: every parser below returns -1 / NULL with `why` set. */
static int
decline(Reader *r, const char *why)
{
    r->why = why;
    return -1;
}

/* Decline at byte `q` of the line. */
static PyObject *
decline_at(Reader *r, const char *q, const char *why)
{
    r->p = q;
    decline(r, why);
    return NULL;
}

static inline void
skip_ws(Reader *r)
{
    while (r->p < r->end && (*r->p == ' ' || *r->p == '\t'))
        r->p++;
}

/* Consume `c` after optional whitespace. */
static inline int
expect(Reader *r, char c, const char *why)
{
    skip_ws(r);
    if (r->p < r->end && *r->p == c) {
        r->p++;
        return 0;
    }
    return decline(r, why);
}

static inline int
is_digit(const Reader *r, const char *q)
{
    return q < r->end && *q >= '0' && *q <= '9';
}

/* The bytes of the string opening at r->p, if ASCII without escapes. */
static int
string_span(Reader *r, const char **start, Py_ssize_t *len)
{
    const char *q = r->p + 1;
    for (; q < r->end; q++) {
        unsigned char c = (unsigned char)*q;
        if (c == '"') {
            *start = r->p + 1;
            *len = q - *start;
            r->p = q + 1;
            return 0;
        }
        if (c == '\\' || c >= 0x80 || c < 0x20) {
            r->p = q;
            return decline(r, c == '\\' ? "an escape in a string"
                              : c >= 0x80 ? "a non-ASCII byte"
                                          : "a control byte in a string");
        }
    }
    r->p = q;
    return decline(r, "an unterminated string");
}

/* The string opening at r->p, interned in the memo. */
static PyObject *
string_value(Reader *r)
{
    const char *s;
    Py_ssize_t n;
    PyObject *str, *found;
    Recent *slot;
    if (string_span(r, &s, &n) < 0)
        return NULL;
    slot = recent_slot(r->recent, s - 1, n + 1);
    if ((found = recent_get(slot, s - 1, n + 1)) != NULL)
        return found;
    str = PyUnicode_New(n, 127);
    if (str == NULL)
        return NULL;
    memcpy(PyUnicode_1BYTE_DATA(str), s, (size_t)n);
    found = PyDict_SetDefault(r->memo, str, str);
    Py_XINCREF(found);
    Py_DECREF(str);
    if (found != NULL)
        recent_put(slot, s - 1, n + 1, found);
    return found;
}

/* The JSON number at r->p, converted as json's scanner converts it;
 * *is_int tells an int (no fraction, no exponent) from a float. */
static PyObject *
number_value(Reader *r, int *is_int)
{
    const char *s = r->p, *q = s, *digits;
    char stack[64], *buf, *stop;
    Py_ssize_t n;
    PyObject *value = NULL;
    Recent *slot = NULL;
    int is_float = 0;

    if (q < r->end && *q == '-')
        q++;
    digits = q;
    if (q < r->end && *q == '0')
        q++;
    else if (is_digit(r, q) && *q != '0')
        while (is_digit(r, q))
            q++;
    else
        return decline_at(r, q, "-Infinity or a malformed number");
    if (q < r->end && *q == '.') {
        if (!is_digit(r, ++q))
            return decline_at(r, q, "a malformed number");
        while (is_digit(r, q))
            q++;
        is_float = 1;
    }
    if (q < r->end && (*q == 'e' || *q == 'E')) {
        q++;
        if (q < r->end && (*q == '+' || *q == '-'))
            q++;
        if (!is_digit(r, q))
            return decline_at(r, q, "a malformed number");
        while (is_digit(r, q))
            q++;
        is_float = 1;
    }
    r->p = q;
    *is_int = !is_float;
    if (!is_float && q - digits <= 18) {  /* < 10**18 fits a long long */
        long long v = 0;
        for (; digits < q; digits++)
            v = v * 10 + (*digits - '0');
        return PyLong_FromLongLong(*s == '-' ? -v : v);
    }
    n = q - s;
    if (is_float) {
        slot = recent_slot(r->recent, s, n);
        if ((value = recent_get(slot, s, n)) != NULL)
            return value;
    }
    /* The span, NUL-terminated, as json's scanner hands it over. */
    buf = n < (Py_ssize_t)sizeof(stack) ? stack : (char *)PyMem_Malloc((size_t)n + 1);
    if (buf == NULL)
        return PyErr_NoMemory();
    memcpy(buf, s, (size_t)n);
    buf[n] = '\0';
    if (is_float) {
        double x = PyOS_string_to_double(buf, &stop, NULL);
        if (x == -1.0 && PyErr_Occurred())
            PyErr_Clear();
        else if (stop == buf + n && (value = PyFloat_FromDouble(x)) != NULL)
            recent_put(slot, s, n, value);
    } else {
        value = PyLong_FromString(buf, NULL, 10);
        if (value == NULL)  /* e.g. past the int max-str-digits limit */
            PyErr_Clear();
    }
    if (buf != stack)
        PyMem_Free(buf);
    if (value == NULL && !PyErr_Occurred())
        decline(r, "a number Python would not convert");
    return value;
}

/* A string, number or null at r->p; anything else declines. */
static PyObject *
scalar_value(Reader *r)
{
    int is_int;
    char c = r->p < r->end ? *r->p : '\0';
    if (c == '"')
        return string_value(r);
    if (c == '-' || (c >= '0' && c <= '9'))
        return number_value(r, &is_int);
    if (c == 'n' && r->end - r->p >= 4 && memcmp(r->p, "null", 4) == 0) {
        r->p += 4;
        Py_RETURN_NONE;
    }
    return decline_at(r, r->p, c == 't' || c == 'f' ? "true or false"
                               : c == 'N' || c == 'I' ? "NaN or Infinity"
                               : c == '[' || c == '{' ? "an array or object where a scalar belongs"
                                                      : "a byte that starts no value");
}

/* The array of strings at r->p as a tuple, interned in the memo. */
static PyObject *
route_value(Reader *r)
{
    PyObject *route, *found;
    Py_ssize_t n;
    if (expect(r, '[', "a path that is not an array") < 0)
        return NULL;
    skip_ws(r);
    if (r->p < r->end && *r->p == ']')
        r->p++;
    else
        for (;;) {
            PyObject *name;
            int appended;
            skip_ws(r);
            if (r->p >= r->end || *r->p != '"')
                return decline_at(r, r->p, "a path element that is not a string");
            name = string_value(r);
            if (name == NULL)
                return NULL;
            appended = PyList_Append(r->route, name);
            Py_DECREF(name);
            if (appended < 0)
                return NULL;
            skip_ws(r);
            if (r->p < r->end && *r->p == ',') {
                r->p++;
                continue;
            }
            if (expect(r, ']', "a malformed path") < 0)
                return NULL;
            break;
        }
    route = PyList_AsTuple(r->route);
    n = PyList_GET_SIZE(r->route);
    if (route == NULL || PyList_SetSlice(r->route, 0, n, NULL) < 0) {
        Py_XDECREF(route);
        return NULL;
    }
    found = PyDict_SetDefault(r->memo, route, route);
    Py_XINCREF(found);
    Py_DECREF(route);
    return found;
}

/* The array of [node, arrival, start_service, departure] hops at r->p,
 * appended to the four hop columns; *count hops. */
static int
hops_value(Reader *r, PyObject **cols, Py_ssize_t *count)
{
    int i;
    if (expect(r, '[', "hops that are not an array") < 0)
        return -1;
    skip_ws(r);
    if (r->p < r->end && *r->p == ']') {
        r->p++;
        return 0;
    }
    for (;;) {
        if (expect(r, '[', "a hop that is not an array") < 0)
            return -1;
        for (i = 0; i < 4; i++) {
            PyObject *value;
            int appended;
            if (i > 0 && expect(r, ',', "a hop that is not 4 elements") < 0)
                return -1;
            skip_ws(r);
            value = scalar_value(r);
            if (value == NULL)
                return -1;
            appended = PyList_Append(cols[C_HOP_NODE + i], value);
            Py_DECREF(value);
            if (appended < 0)
                return -1;
        }
        if (expect(r, ']', "a hop that is not 4 elements") < 0)
            return -1;
        *count += 1;
        skip_ws(r);
        if (r->p < r->end && *r->p == ',') {
            r->p++;
            continue;
        }
        return expect(r, ']', "malformed hops");
    }
}

/* The row object at r->p (a '{'), appended to the columns. */
static int
row_value(Reader *r, PyObject **cols, Py_ssize_t *hop_total)
{
    PyObject *values[N_KEYS] = {NULL};
    PyObject *offset;
    unsigned seen = 0;
    Py_ssize_t hops = 0;
    int k, is_int, status = -1;

    r->p++;
    skip_ws(r);
    if (r->p < r->end && *r->p == '}')
        r->p++;
    else
        for (;;) {
            const char *name;
            Py_ssize_t len;
            skip_ws(r);
            if (r->p >= r->end || *r->p != '"') {
                decline(r, "a malformed object");
                goto done;
            }
            if (string_span(r, &name, &len) < 0)
                goto done;
            for (k = 0; k < N_KEYS; k++)
                if (row_keys[k].len == len && memcmp(row_keys[k].name, name, (size_t)len) == 0)
                    break;
            if (k == N_KEYS) {
                decline(r, "an unknown key");
                goto done;
            }
            r->key = row_keys[k].name;
            if (seen & (1u << k)) {
                decline(r, "a duplicate key");
                goto done;
            }
            seen |= 1u << k;
            if (expect(r, ':', "a malformed object") < 0)
                goto done;
            skip_ws(r);
            if (k == K_HOPS) {
                if (hops_value(r, cols, &hops) < 0)
                    goto done;
            } else if (k == K_PATH) {
                if ((values[k] = route_value(r)) == NULL)
                    goto done;
            } else if (k == K_PACKET_ID || k == K_INGRESS_TIME || k == K_OUTPUT_TIME) {
                const char *why = k == K_PACKET_ID ? "a packet_id that is not an int"
                                                   : "a time that is not a number";
                if (r->p >= r->end || (*r->p != '-' && (*r->p < '0' || *r->p > '9'))) {
                    decline(r, why);
                    goto done;
                }
                if ((values[k] = number_value(r, &is_int)) == NULL)
                    goto done;
                if (k == K_PACKET_ID && !is_int) {
                    decline(r, why);
                    goto done;
                }
            } else if ((values[k] = scalar_value(r)) == NULL) {
                goto done;
            }
            r->key = NULL;
            skip_ws(r);
            if (r->p < r->end && *r->p == ',') {
                r->p++;
                continue;
            }
            if (expect(r, '}', "a malformed object") < 0)
                goto done;
            break;
        }
    skip_ws(r);
    if (r->p != r->end) {
        decline(r, "trailing bytes after the object");
        goto done;
    }
    if ((seen & REQUIRED_KEYS) != REQUIRED_KEYS) {
        for (k = 0; (seen | ~REQUIRED_KEYS) & (1u << k); k++)
            ;  /* the first required key not seen */
        r->key = row_keys[k].name;
        decline(r, "a missing key");
        goto done;
    }
    for (k = 0; k < K_HOPS; k++)
        if (PyList_Append(cols[k], values[k] != NULL ? values[k] : Py_None) < 0)
            goto done;
    *hop_total += hops;
    offset = PyLong_FromSsize_t(*hop_total);
    if (offset == NULL)
        goto done;
    status = PyList_Append(cols[C_HOP_OFFSET], offset);
    Py_DECREF(offset);
done:
    for (k = 0; k < N_KEYS; k++)
        Py_XDECREF(values[k]);
    return status;
}

static PyObject *
kernel_decode_rows(PyObject *self, PyObject *args)
{
    const char *data, *line, *stop;
    Py_ssize_t size, first, rows = 0, hop_total = 0;
    PyObject *memo, *cols[N_COLUMNS] = {NULL}, *result = NULL;
    Reader r;
    int i;

    if (!PyArg_ParseTuple(args, "y#O!n:decode_rows", &data, &size,
                          &PyDict_Type, &memo, &first))
        return NULL;
    memset(&r, 0, sizeof(r));
    r.memo = memo;
    r.route = PyList_New(0);
    r.recent = (Recent *)PyMem_Calloc((size_t)1 << RECENT_BITS, sizeof(Recent));
    if (r.route == NULL || r.recent == NULL) {
        Py_XDECREF(r.route);
        PyMem_Free(r.recent);
        return r.route == NULL ? NULL : PyErr_NoMemory();
    }
    for (i = 0; i < N_COLUMNS; i++)
        if ((cols[i] = PyList_New(0)) == NULL)
            goto done;
    {
        PyObject *zero = PyLong_FromLong(0);
        if (zero == NULL || PyList_Append(cols[C_HOP_OFFSET], zero) < 0) {
            Py_XDECREF(zero);
            goto done;
        }
        Py_DECREF(zero);
    }

    for (line = data, stop = data + size; line < stop;) {
        const char *newline = memchr(line, '\n', (size_t)(stop - line));
        const char *end = newline != NULL ? newline : stop;
        if (end > line && end[-1] == '\r')
            end--;
        r.line = r.p = line;
        r.end = end;
        line = newline != NULL ? newline + 1 : stop;
        skip_ws(&r);
        if (r.p == r.end)
            continue;  /* a blank line */
        if (*r.p != '{') {
            decline(&r, "a line that is not an object");
            goto declined;
        }
        if (row_value(&r, cols, &hop_total) < 0) {
            if (r.why == NULL)
                goto done;  /* a Python error: raise it */
            goto declined;
        }
        rows++;
    }
    result = PyTuple_New(N_COLUMNS);
    if (result != NULL)
        for (i = 0; i < N_COLUMNS; i++) {
            PyTuple_SET_ITEM(result, i, cols[i]);
            cols[i] = NULL;
        }
    goto done;

declined:
    {
        /* The byte it stopped at (b'' at the end of the line). */
        PyObject *seen = PyBytes_FromStringAndSize(r.p, r.p < r.end ? 1 : 0);
        if (seen != NULL)
            result = PyUnicode_FromFormat(
                "packet %zd: %s%s%s%s (byte %zd of its line: %R)", first + rows, r.why,
                r.key != NULL ? " [" : "", r.key != NULL ? r.key : "", r.key != NULL ? "]" : "",
                (Py_ssize_t)(r.p - r.line), seen);
        Py_XDECREF(seen);
    }
done:
    for (i = 0; i < N_COLUMNS; i++)
        Py_XDECREF(cols[i]);
    Py_DECREF(r.route);
    for (i = 0; i < 1 << RECENT_BITS; i++)
        Py_XDECREF(r.recent[i].value);
    PyMem_Free(r.recent);
    return result;
}

PyDoc_STRVAR(decode_rows_doc,
"decode_rows(block, memo, first)\n"
"--\n\n"
"Parse a block of repro-schedule/1 row lines into ScheduleColumns' 15\n"
"lists (a tuple, in field order; hop offsets count from 0).  Returns a\n"
"str instead — 'packet N: what it saw', N counted on from `first` — when\n"
"the block holds anything json would read differently or reject; the\n"
"caller then decodes it with json.  `memo` interns node names and routes.");

/* ------------------------------------------------------------------ */
/* encode_rows: columns straight into repro-schedule/1 row lines.     */
/* ------------------------------------------------------------------ */
/*
 * The mirror of decode_rows.  core/schedule.py's writer hands it the 15
 * ScheduleColumns lists and a row range, and gets back exactly the bytes
 * of json.dumps(row) + "\n" for each row ScheduleColumns.rows would build,
 * with no row dict or hop tuple in between.  A float is spelled by
 * PyOS_double_to_string(v, 'r', 0, Py_DTSF_ADD_DOT_0), the call behind
 * float.__repr__ and so json's; an int exactly; None as null; a str only
 * when it is printable ASCII that json writes unescaped.  Anything else
 * declines the block — a non-finite float, a bool or any int or float
 * subclass, an int past 64 bits, a string json would escape, any other
 * type, a column too short for the rows asked for — and the caller writes
 * it with json, the reference.  Nothing here calls back into Python, so
 * the columns cannot change under the borrowed references the loop holds.
 */

/* Floats spelled earlier in this block, direct-mapped by their bits (a
 * hop's start of service is often its arrival, a port's next start its
 * last departure).  A miss only spells again. */
#define SPELLED_BITS 11

typedef struct {
    uint64_t bits;
    unsigned char len;  /* 0: an empty slot */
    char text[31];      /* a repr is at most 24 bytes */
} Spelled;

typedef struct {
    char *buf;
    Py_ssize_t len, cap;
    Spelled *spelled;   /* 1 << SPELLED_BITS slots */
    const char *why;    /* what declined the block; NULL on a Python error */
    const char *key;    /* the row key it concerns */
} Writer;

static int
put(Writer *w, const char *s, Py_ssize_t n)
{
    char *buf;
    if (w->len + n > w->cap) {
        while (w->len + n > w->cap)
            w->cap *= 2;
        if ((buf = (char *)PyMem_Realloc(w->buf, (size_t)w->cap)) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        w->buf = buf;
    }
    memcpy(w->buf + w->len, s, (size_t)n);
    w->len += n;
    return 0;
}

#define PUT_LITERAL(w, s) put((w), (s), (Py_ssize_t)sizeof(s) - 1)

static int
refuse(Writer *w, const char *why)
{
    w->why = why;
    return -1;
}

/* `value` as json.dumps spells it, when it is a type spelled here. */
static int
put_scalar(Writer *w, PyObject *value)
{
    if (value == Py_None)
        return PUT_LITERAL(w, "null");
    if (PyFloat_CheckExact(value)) {
        double x = PyFloat_AS_DOUBLE(value);
        uint64_t bits;
        Spelled *slot;
        if (!isfinite(x))
            return refuse(w, "a non-finite float");
        memcpy(&bits, &x, sizeof(bits));
        slot = &w->spelled[(bits * 0x9E3779B97F4A7C15ULL) >> (64 - SPELLED_BITS)];
        if (slot->len == 0 || slot->bits != bits) {
            char *text = PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
            if (text == NULL)
                return -1;
            slot->len = (unsigned char)strlen(text);  /* sign, 17 digits, '.', "e-308" */
            memcpy(slot->text, text, slot->len);
            slot->bits = bits;
            PyMem_Free(text);
        }
        return put(w, slot->text, slot->len);
    }
    if (PyLong_CheckExact(value)) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(value, &overflow);
        unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
        char digits[24], *q = digits + sizeof(digits);
        if (overflow)
            return refuse(w, "an int beyond 64 bits");
        do {
            *--q = (char)('0' + u % 10);
            u /= 10;
        } while (u);
        if (v < 0)
            *--q = '-';
        return put(w, q, digits + sizeof(digits) - q);
    }
    if (PyUnicode_CheckExact(value)) {
        const Py_UCS1 *s;
        Py_ssize_t i, n;
        if (!PyUnicode_IS_ASCII(value))
            return refuse(w, "a string that is not ASCII");
        s = PyUnicode_1BYTE_DATA(value);
        n = PyUnicode_GET_LENGTH(value);
        for (i = 0; i < n; i++)
            if (s[i] < 0x20 || s[i] > 0x7e || s[i] == '"' || s[i] == '\\')
                return refuse(w, "a string json would escape");
        if (PUT_LITERAL(w, "\"") < 0 || put(w, (const char *)s, n) < 0)
            return -1;
        return PUT_LITERAL(w, "\"");
    }
    return refuse(w, PyBool_Check(value) ? "a bool"
                     : PyLong_Check(value) || PyFloat_Check(value) ? "an int or float subclass"
                                                                   : "an unexpected type");
}

/* A row's path: a tuple or list of scalars. */
static int
put_route(Writer *w, PyObject *route)
{
    Py_ssize_t e;
    if (!PyTuple_CheckExact(route) && !PyList_CheckExact(route))
        return refuse(w, "a path that is not a tuple or list");
    if (PUT_LITERAL(w, "[") < 0)
        return -1;
    for (e = 0; e < PySequence_Fast_GET_SIZE(route); e++)
        if ((e > 0 && PUT_LITERAL(w, ", ") < 0) || put_scalar(w, PySequence_Fast_GET_ITEM(route, e)) < 0)
            return -1;
    return PUT_LITERAL(w, "]");
}

/* Row `j`'s hops; `hop_count` is the length every hop column reaches. */
static int
put_hops(Writer *w, PyObject **cols, Py_ssize_t j, Py_ssize_t hop_count)
{
    Py_ssize_t first = PyLong_AsSsize_t(PyList_GET_ITEM(cols[C_HOP_OFFSET], j));
    Py_ssize_t last = PyLong_AsSsize_t(PyList_GET_ITEM(cols[C_HOP_OFFSET], j + 1));
    Py_ssize_t h;
    int c;
    if (PyErr_Occurred()) {
        PyErr_Clear();
        return refuse(w, "a hop offset that is not an int");
    }
    if (first < 0 || first > last || last > hop_count)
        return refuse(w, "hop offsets outside the hop columns");
    if (PUT_LITERAL(w, "[") < 0)
        return -1;
    for (h = first; h < last; h++) {
        if (put(w, h > first ? ", [" : "[", h > first ? 3 : 1) < 0)
            return -1;
        for (c = 0; c < 4; c++)
            if ((c > 0 && PUT_LITERAL(w, ", ") < 0) ||
                put_scalar(w, PyList_GET_ITEM(cols[C_HOP_NODE + c], h)) < 0)
                return -1;
        if (PUT_LITERAL(w, "]") < 0)
            return -1;
    }
    return PUT_LITERAL(w, "]");
}

/* A row's keys in the order of ScheduleColumns.rows' dict, and its line. */
static const int row_order[N_KEYS] = {
    K_PACKET_ID, K_FLOW_ID, K_SRC, K_DST, K_SIZE_BYTES, K_INGRESS_TIME,
    K_OUTPUT_TIME, K_PATH, K_HOPS, K_FLOW_SIZE_BYTES, K_DEADLINE,
};

static int
put_row(Writer *w, PyObject **cols, Py_ssize_t j, Py_ssize_t hop_count)
{
    int i, k, status;
    for (i = 0; i < N_KEYS; i++) {
        k = row_order[i];
        w->key = row_keys[k].name;
        if (put(w, i == 0 ? "{\"" : ", \"", i == 0 ? 2 : 3) < 0 ||
            put(w, row_keys[k].name, row_keys[k].len) < 0 || PUT_LITERAL(w, "\": ") < 0)
            return -1;
        status = k == K_PATH   ? put_route(w, PyList_GET_ITEM(cols[K_PATH], j))
                 : k == K_HOPS ? put_hops(w, cols, j, hop_count)
                               : put_scalar(w, PyList_GET_ITEM(cols[k], j));
        if (status < 0)
            return -1;
    }
    return PUT_LITERAL(w, "}\n");
}

static PyObject *
kernel_encode_rows(PyObject *self, PyObject *args)
{
    PyObject *columns, *cols[N_COLUMNS], *result = NULL;
    Py_ssize_t start, stop, j, hop_count = PY_SSIZE_T_MAX;
    Writer w = {0};
    int i;

    if (!PyArg_ParseTuple(args, "O!nn:encode_rows", &PyTuple_Type, &columns, &start, &stop))
        return NULL;
    if (PyTuple_GET_SIZE(columns) != N_COLUMNS) {
        PyErr_SetString(PyExc_TypeError, "encode_rows: columns must be ScheduleColumns' 15 lists");
        return NULL;
    }
    if (start < 0 || start > stop)
        return PyUnicode_FromString("a row range that is not one");
    for (i = 0; i < N_COLUMNS; i++) {
        cols[i] = PyTuple_GET_ITEM(columns, i);
        if (!PyList_Check(cols[i]))
            return PyUnicode_FromString("a column that is not a list");
        if (i > C_HOP_OFFSET && PyList_GET_SIZE(cols[i]) < hop_count)
            hop_count = PyList_GET_SIZE(cols[i]);
        if (i <= C_HOP_OFFSET && PyList_GET_SIZE(cols[i]) < stop + (i == C_HOP_OFFSET))
            return PyUnicode_FromString("a column shorter than the rows asked for");
    }
    w.buf = (char *)PyMem_Malloc((size_t)(w.cap = 1 << 16));
    w.spelled = (Spelled *)PyMem_Calloc((size_t)1 << SPELLED_BITS, sizeof(Spelled));
    if (w.buf == NULL || w.spelled == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (j = start; j < stop; j++)
        if (put_row(&w, cols, j, hop_count) < 0) {
            if (w.why != NULL)
                result = PyUnicode_FromFormat("packet %R (row %zd): %s [%s]",
                                              PyList_GET_ITEM(cols[K_PACKET_ID], j), j, w.why, w.key);
            goto done;
        }
    result = PyBytes_FromStringAndSize(w.buf, w.len);
done:
    PyMem_Free(w.buf);
    PyMem_Free(w.spelled);
    return result;
}

PyDoc_STRVAR(encode_rows_doc,
"encode_rows(columns, start, stop)\n"
"--\n\n"
"Rows start..stop of ScheduleColumns' 15 lists (a tuple, in field order) as\n"
"repro-schedule/1 lines: the bytes json.dumps(row) + '\\n' gives for each.\n"
"Returns a str instead — 'packet P (row N): what it saw [key]' — when a\n"
"value is one json would spell otherwise or reject; the caller then writes\n"
"the block with json.");

static PyMethodDef kernel_methods[] = {
    {"run_flat_replay", (PyCFunction)(void (*)(void))kernel_run_flat_replay,
     METH_VARARGS | METH_KEYWORDS, run_flat_replay_doc},
    {"decode_rows", kernel_decode_rows, METH_VARARGS, decode_rows_doc},
    {"encode_rows", kernel_encode_rows, METH_VARARGS, encode_rows_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(kernel_module_doc,
"Compiled flat replay kernel and schedule row decoder and encoder\n"
"(hand-written CPython C extension).\n\n"
"Built optionally (a C toolchain is required); repro.sim.compiled wraps\n"
"the import and reports availability, repro.core.replay_compiled\n"
"registers the 'compiled' backend on top of it, and\n"
"repro.core.schedule decodes and encodes stored schedules with it.");

#if defined(__clang__)
#define KERNEL_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define KERNEL_COMPILER "gcc " __VERSION__
#elif defined(_MSC_VER)
#define KERNEL_COMPILER "msvc"
#else
#define KERNEL_COMPILER "unknown"
#endif

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.sim._kernel",
    kernel_module_doc,
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "COMPILER", KERNEL_COMPILER) < 0 ||
        PyModule_AddStringConstant(module, "TOOLCHAIN",
                                   "cpython-c-api") < 0 ||
        PyModule_AddIntConstant(module, "KERNEL_VERSION", 4) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
