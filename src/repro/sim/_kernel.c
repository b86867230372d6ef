/* Native kernel: the OO engine's event loop over flat packet-hop arrays, for
 * replay (`run_flat_replay`), open-loop recording (`run_flat_record`) and
 * closed-loop live simulation (`run_flat_live`), and the stored-schedule row
 * decoder and encoder, `decode_rows` and `encode_rows` (see the comments there).
 *
 * The three loops share one port model and one loop, `rec_run`:
 * Simulator + OutputPort + Scheduler + Packet collapse into a Hop per
 * packet-hop, a Row per packet, a Port per directed link and one event heap.
 * The entry points only check their inputs, fill that state and run it.
 * What differs is the traffic source.  A replay's packets are known up
 * front (ingress times, sizes, routes, header keys) and enter through a
 * cursor over their ingress times (repro.core.replay_compiled).  A
 * recording's flows are not: the simulator's generator entries (time, seq,
 * event, callback, args) stay on its Python heap and each step pops the
 * earlier of the two tops in (time, seq) (repro.sim.flat_record; contract:
 * docs/backends.md#recording).  Python runs each generator callback (sim.now
 * and sim._sequence set first, the counter read back after), emit(source,
 * time) in place of UdpSource._emit_packets (the flow's per-packet columns;
 * it returns sizes, route ports, bandwidths, flow size and slack stamp), and
 * a contended Random port's _rng.randint(0, n).  A live run (repro.sim.flat_live;
 * docs/backends.md#live-simulations) merges the same two heaps, but its
 * packets are the transports' Packet objects: each host port's enqueue hands
 * one to `inject` at sim.now, a last-hop delivery is a real event that writes
 * the packet's hop timings and header back and calls the destination
 * Host.receive, and a finite buffer drops as the port's scheduler would,
 * through the port's own OutputPort._drop.  The loop replays the OO
 * engine's choreography exactly, so its output is bit-identical to the
 * reference engine's.  Each load-bearing detail mirrors one line of the OO
 * code:
 *
 * - One event heap of (time, seq, code): hop f's finish is f, its link
 *   delivery (to hop f + 1, or to the destination after a last hop) is ~f,
 *   the replay cursor is INJECT and port p's outage toggles are INJECT + 1 +
 *   2p (down) and INJECT + 2 + 2p (up).  The cursor draws seqs from the
 *   front counter (Simulator._front_sequence), every other event from the
 *   normal counter, in the order the OO callbacks call Simulator.schedule,
 *   and every event is counted as Simulator.run counts it; a cancelled
 *   generator entry is popped uncounted.  A recording's delivery after a
 *   last hop schedules nothing, so it is settled (and counted) at the finish,
 *   taking its seq, instead of being pushed; a replay with a budget and a
 *   live run push it.
 * - A finish pushes the downstream delivery *before* the port's next
 *   transmission (OutputPort._finish_transmission).
 * - Queues mirror the schedulers: an arrival-ordered array (FIFO / LIFO /
 *   Random), per-flow FIFOs in first-insertion order served by strictly
 *   least queued priority (SRPT, and the live SJF-with-starvation-prevention),
 *   or an EvHeap of (key, enqueue seq, hop)
 *   keyed by a static per-hop key (SJF's float(flow size); replay's EDF,
 *   priority and omniscient keys), (slack + t) + tx, t - accumulated wait,
 *   or SCFQ's max(vt, flow's last tag) + size / weight (LSTF, FIFO+, FQ).  A
 *   hop's FQ tag slot is its `next` (one per route hop of a recorded flow,
 *   one per (port, flow) live).  An idle port serves an arrival at
 *   once; LSTF's `slack -= t - arr` is skipped there (the wait is exactly 0.0).
 * - A finite (live) buffer mirrors OutputPort.enqueue: the scheduler's
 *   byte count (a float accumulator; the heap kinds reset it to 0.0 when
 *   empty) against `bytes + size > buffer`, then the victim: the arrival
 *   (drop-tail), LSTF's most remaining slack or SRPT's worst priority (the
 *   arrival first, strict >).  LSTF's victims are lazily removed, kept in
 *   the heap as ~hop, and its pops are heapq's own sift, because its victim
 *   scan walks the heap array in heapq's order.
 * - A replay's fault plan replays sim/port.py + faults/injector.py.  Toggles
 *   are pushed before the first pop, so they carry seqs 0, 1, ...
 *   (FaultInjector.install: links in plan order, windows sorted, down before
 *   up).  Port.cur is the hop in flight, IDLE or DOWN; a down-toggle
 *   overwrites it, which lazily cancels the finish, and the stale finish is
 *   popped *uncounted*.  A down port queues arrivals; an up-toggle restarts
 *   service through the ordinary dequeue.  At every finish each of the
 *   port's drop filters is called, drop(None, t), none skipped; a destroyed
 *   packet pushes no delivery and consumes no seq.
 *
 * Float-determinism notes, each load-bearing:
 *
 * - Float operations are CPython's, in its association order: `t + prop`,
 *   `t + tx`, `(slack + t) + tx`, `slack -= t - arr`, `slack - (t - arr)`,
 *   `(bytes + size) - size`, and `tx = (size * 8.0) / bandwidth`.  That one
 *   product feeds a division, never an addition, so there is nothing to
 *   contract into an FMA; the build passes -ffp-contract=off to keep it that way.
 * - (time, seq) / (key, seq) with unique seqs is a strict total order, so
 *   any correct binary heap pops as heapq would over the same tuples.  Keys
 *   may be +inf (IEEE-754 compares it as Python does).
 * - Every replay input is copied into C arrays and the drop-filter tuples
 *   are held by strong reference, so a filter calling back into Python
 *   cannot change the loop's state.  The input arrays are read, never
 *   mutated.  A live run's Python callbacks can inject, which may realloc
 *   the hop and row arrays: every Hop / Row pointer is re-fetched after one.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Event heap: (time, seq, code) — seq unique, code never compared.   */
/* Keyed port queues are the same heap of (key, enqueue seq, hop).    */
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
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
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

/* heapq.heappop's own sift (the hole to a leaf, then the last item up), for
 * a heap whose array order is observable: it leaves the array as heapq
 * leaves a list of the same entries. */
static Ev
hq_pop(EvHeap *h)
{
    Ev top = h->items[0], last = h->items[--h->size];
    Py_ssize_t pos = 0, child, n = h->size;
    if (n == 0)
        return top;
    while ((child = 2 * pos + 1) < n) {
        if (child + 1 < n && !ev_lt(&h->items[child], &h->items[child + 1]))
            child += 1;
        h->items[pos] = h->items[child];
        pos = child;
    }
    while (pos > 0 && ev_lt(&last, &h->items[(pos - 1) >> 1])) {
        h->items[pos] = h->items[(pos - 1) >> 1];
        pos = (pos - 1) >> 1;
    }
    h->items[pos] = last;
    return top;
}

/* ------------------------------------------------------------------ */
/* The port model                                                     */
/* ------------------------------------------------------------------ */
enum { K_RANDOM, K_FIFO, K_LIFO, K_SRPT, K_KEY, K_LSTF, K_FIFO_PLUS, K_FQ };
#define IDLE (-1)                       /* Port.cur: nothing in flight */
#define DOWN (-2)                       /* Port.cur: an outage holds the queue */
#define INJECT ((int64_t)1 << 62)       /* the replay cursor's code; toggles follow it */

typedef struct {            /* packet-hop f */
    int64_t port, row, next;            /* next: the hop behind it in SRPT's flow FIFO; FQ's tag slot */
    double tx, key, arr, start, dep;    /* key: K_KEY's; live: arr / start / dep NaN until reached */
} Hop;

typedef struct {            /* packet r */
    int64_t end, flow;                  /* one past its last hop; flow */
    PyObject *packet;                   /* live: the Packet (strong) until written back, else NULL */
    double size, out, prio, slack, waited;  /* size: FQ's size / weight; out NaN: never exited;
                                           prio: SRPT's; slack NaN: none */
} Row;

typedef struct {            /* live packet r, beside its Row */
    double bytes;                       /* size_bytes, for the buffer */
    int64_t first, base;                /* first hop; len(packet.hops) at injection, or (free) the
                                           next free row with as many hops */
    PyObject *cursors;                  /* a source-routed packet's route_cursor per hop, or NULL */
} Live;

typedef struct {            /* SRPT: one flow's queued hops, oldest first */
    int64_t flow, head, tail;
} FlowQ;

typedef struct {
    int kind, finite;                   /* finite: a live finite buffer */
    int64_t cur;                        /* the hop in flight, IDLE or DOWN */
    double prop, vt, buffer, bytes;     /* propagation delay; FQ's virtual time; a finite
                                           buffer and its scheduler's byte count */
    Py_ssize_t queued;                  /* a finite port's queued hops (lazily removed ones not) */
    PyObject *randint, *filters;        /* Random's draw; drop filters (a tuple) or NULL */
    PyObject *name, *drop, *deliver;    /* live: its node's name, its OutputPort._drop and the
                                           Host.receive its link leads to (or None) */
    int64_t *q;                         /* FIFO / LIFO / Random: q[head:head+len] */
    Py_ssize_t head, len, cap, nflows, flows_cap;
    EvHeap heap;                        /* K_KEY / LSTF / FIFO+ / FQ: (key, enqueue seq, hop) */
    FlowQ *flows;                       /* SRPT */
} Port;

typedef struct {
    Port *ports;
    Hop *hops;
    Row *rows;
    Live *live;                         /* a live run's, per row */
    double *tags, *ingress;             /* ingress: a replay's, per row */
    int64_t *free;                      /* live: the first free row of each hop count, or -1 */
    Py_ssize_t nports, nhops, hops_cap, nrows, rows_cap, live_cap, ntags, tags_cap, cursor;
    Py_ssize_t free_cap;
    EvHeap heap;
    int64_t seq, fseq, enqueued, nflows, executed, budget;
    int push_last, reread, fq;          /* push a last delivery; re-read the generator heap's top;
                                           a live run has an FQ port */
    double limit, now;                  /* run until; the current event's time */
    PyObject *sim, *gens, *emit, *emit_func, *heappop;  /* a recording's generator side */
    PyObject *prio_of, *key_of;         /* live: the flow-aware priority and SJF's key, or None */
} Rec;

/* `items` (*cap elements of `size` bytes) regrown to hold `need`; NULL with
 * MemoryError set, and the old block freed, when out of memory. */
static void *
grow(void *items, Py_ssize_t *cap, Py_ssize_t need, size_t size)
{
    Py_ssize_t n = *cap > 0 ? *cap : 16;
    void *bigger;
    if (need <= *cap)
        return items;
    while (n < need)
        n *= 2;
    if ((bigger = realloc(items, (size_t)n * size)) == NULL) {
        free(items);
        PyErr_NoMemory();
    }
    *cap = n;
    return bigger;
}

/* A read-only view of `obj` as a C-contiguous buffer of 8-byte items of
 * struct format `code` ('q': int64, 'd': double), as an array('q') or
 * array('d') exports it: 0, or -1 with TypeError naming `name` (a list
 * included).  The caller releases the view. */
static int
typed_view(PyObject *obj, const char *name, char code, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_TypeError, "%s must be an array('%c'), not %.100s", name, code,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    if (view->itemsize != 8 || view->format == NULL || view->format[0] != code || view->format[1] != '\0') {
        PyErr_Format(PyExc_TypeError, "%s must be an array('%c'), not a buffer of format %s", name,
                     code, view->format != NULL ? view->format : "B");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* The `want` doubles or (`ints`) int64s of the typed buffer `obj`
 * (typed_view), written `stride` bytes apart from `out`: 0, or -1 with
 * TypeError for another kind of object or ValueError for another count. */
static int
scatter(PyObject *obj, const char *name, Py_ssize_t want, void *out, size_t stride, int ints)
{
    Py_buffer view;
    Py_ssize_t i, n;
    if (typed_view(obj, name, ints ? 'q' : 'd', &view) < 0)
        return -1;
    if ((n = view.len / 8) != want)
        PyErr_Format(PyExc_ValueError, "%s must have %zd entries, got %zd", name, want, n);
    for (i = 0; n == want && i < n; i++)
        memcpy((char *)out + (size_t)i * stride, (const char *)view.buf + 8 * i, 8);
    PyBuffer_Release(&view);
    return n == want ? 0 : -1;
}

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

/* Attribute names a live run reads and writes, interned at import. */
static PyObject *s_now, *s_sequence, *s_cancelled, *s_hops, *s_header, *s_slack, *s_waited,
    *s_size, *s_flow_id, *s_flow_weight, *s_cursor;

/* A float, or None for NaN (a time not reached yet). */
static PyObject *
float_or_none(double x)
{
    return isnan(x) ? Py_NewRef(Py_None) : PyFloat_FromDouble(x);
}

/* fn(arg) at t as Simulator.run would call it: sim.now and sim._sequence set
 * first, the counter read back after; the generator heap's top is re-read
 * afterwards.  0 or -1. */
static int
live_call(Rec *R, double t, PyObject *fn, PyObject *arg)
{
    PyObject *now = PyFloat_FromDouble(t), *seq = PyLong_FromLongLong(R->seq), *out = NULL;
    R->now = t;
    R->reread = 1;
    if (now != NULL && seq != NULL && PyObject_SetAttr(R->sim, s_now, now) == 0 &&
        PyObject_SetAttr(R->sim, s_sequence, seq) == 0 &&
        (out = PyObject_CallOneArg(fn, arg)) != NULL) {
        Py_SETREF(out, PyObject_GetAttr(R->sim, s_sequence));
        if (out != NULL && (R->seq = PyLong_AsLongLong(out)) == -1 && PyErr_Occurred())
            Py_CLEAR(out);
    }
    Py_XDECREF(now);
    Py_XDECREF(seq);
    if (out == NULL)
        return -1;
    Py_DECREF(out);
    return 0;
}

/* Live packet r's state in the OO engine once it reached hop `last`, written
 * onto its Packet: the host's service start and departure, every router's
 * (node, arrival, start, departure) appended to `hops` (None where not yet
 * reached), `header.slack` (unless None), `header.accumulated_wait` and a
 * source-routed packet's `route_cursor`.  0 or -1. */
static int
live_writeback(Rec *R, int64_t r, int64_t last)
{
    Live *L = &R->live[r];
    PyObject *packet = R->rows[r].packet, *hops = PyObject_GetAttr(packet, s_hops), *header = NULL;
    PyObject *at[4];
    int64_t f;
    int k, status = -1;
    if (hops == NULL)
        return -1;
    if (!PyList_Check(hops) || PyList_GET_SIZE(hops) < L->base) {
        PyErr_SetString(PyExc_TypeError, "a live packet's hops must stay the list it was sent with");
        goto done;
    }
    for (f = L->first; f <= last; f++) {
        const Hop *h = &R->hops[f];
        at[0] = Py_NewRef(R->ports[h->port].name);
        at[1] = float_or_none(h->arr);
        at[2] = float_or_none(h->start);
        at[3] = float_or_none(h->dep);
        for (k = 0; k < 4; k++)
            if (at[k] == NULL || (f > L->first && PyList_Append(hops, at[k]) < 0))
                break;
        if (k == 4 && f == L->first) {  /* Host.send's entry: its start and departure */
            PyList_SetItem(hops, L->base - 2, Py_NewRef(at[2]));
            PyList_SetItem(hops, L->base - 1, Py_NewRef(at[3]));
        }
        for (k = 0; k < 4; k++)
            Py_XDECREF(at[k]);
        if (PyErr_Occurred())
            goto done;
    }
    if ((header = PyObject_GetAttr(packet, s_header)) == NULL)
        goto done;
    status = 0;
    at[0] = isnan(R->rows[r].slack) ? NULL : PyFloat_FromDouble(R->rows[r].slack);
    at[1] = PyFloat_FromDouble(R->rows[r].waited);
    if ((at[0] == NULL && !isnan(R->rows[r].slack)) || at[1] == NULL ||
        (at[0] != NULL && PyObject_SetAttr(header, s_slack, at[0]) < 0) ||
        PyObject_SetAttr(header, s_waited, at[1]) < 0 ||
        (L->cursors != NULL &&
         PyObject_SetAttr(packet, s_cursor, PyTuple_GET_ITEM(L->cursors, last - L->first)) < 0))
        status = -1;
    Py_XDECREF(at[0]);
    Py_XDECREF(at[1]);
done:
    Py_XDECREF(header);
    Py_DECREF(hops);
    return status;
}

/* Live packet r leaves the loop: its row (and hops) go on the free list of
 * its hop count, and the caller owns the returned Packet. */
static PyObject *
live_release(Rec *R, int64_t r)
{
    PyObject *packet = R->rows[r].packet;
    int64_t n = R->rows[r].end - R->live[r].first;
    Py_CLEAR(R->live[r].cursors);
    R->rows[r].packet = NULL;
    if (n < R->free_cap) {  /* live_alloc sized the list past every hop count */
        R->live[r].base = R->free[n];
        R->free[n] = r;
    }
    return packet;
}

/* OutputPort._drop for live hop f at t: the packet written back as it stood
 * (queued at hop f), then the port's own _drop(packet).  0 or -1. */
static int
live_drop(Rec *R, int64_t f, double t)
{
    int64_t r = R->hops[f].row;
    PyObject *drop = R->ports[R->hops[f].port].drop, *packet;
    int status;
    if (live_writeback(R, r, f) < 0)
        return -1;
    packet = live_release(R, r);
    status = live_call(R, t, drop, packet);
    Py_DECREF(packet);
    return status;
}

/* Host.receive for live hop f's delivery at t.  0 or -1. */
static int
live_deliver(Rec *R, int64_t f, double t)
{
    int64_t r = R->hops[f].row;
    PyObject *receive = R->ports[R->hops[f].port].deliver, *packet;
    int status;
    if (receive == Py_None) {
        PyErr_SetString(PyExc_RuntimeError, "a live route ended at a router");
        return -1;
    }
    if (live_writeback(R, r, f) < 0)
        return -1;
    packet = live_release(R, r);
    status = live_call(R, t, receive, packet);
    Py_DECREF(packet);
    return status;
}

/* A finite buffer's admission of hop f at t (OutputPort.enqueue): 1 to queue
 * it, 0 when it was dropped, -1 on an error.  The scheduler's choose_drop
 * picks the victim (the arrival unless LSTF or SRPT finds a strictly worse
 * queued hop, which is removed, and its bytes with it, before it is dropped). */
static int
live_admit(Rec *R, int64_t f, double t)
{
    Hop *h = &R->hops[f];
    Port *P = &R->ports[h->port];
    int64_t victim = f, g, prev, before = -1;
    Py_ssize_t i, at = -1;
    double worst, s;
    if (!(P->bytes + R->live[h->row].bytes > P->buffer))
        return 1;
    if (P->kind == K_LSTF) {  /* remaining slack: the arrival, then queued_entries() */
        s = R->rows[h->row].slack;
        worst = isnan(s) ? INFINITY : s - (t - t);
        for (i = 0; i < P->heap.size; i++) {
            if ((g = P->heap.items[i].code) < 0)
                continue;  /* lazily removed */
            s = R->rows[R->hops[g].row].slack;
            if ((s = isnan(s) ? INFINITY : s - (t - R->hops[g].arr)) > worst)
                worst = s, victim = g, at = i;
        }
        if (victim != f) {  /* PriorityScheduler.remove */
            P->heap.items[at].code = ~victim;
            P->bytes -= R->live[R->hops[victim].row].bytes;
            if (--P->queued == 0)
                P->bytes = 0.0;
        }
    } else if (P->kind == K_SRPT) {  /* worst priority: the arrival, then each flow's FIFO */
        worst = R->rows[h->row].prio;
        for (i = 0; i < P->nflows; i++)
            for (prev = -1, g = P->flows[i].head; g >= 0; prev = g, g = R->hops[g].next)
                if (R->rows[R->hops[g].row].prio > worst)
                    worst = R->rows[R->hops[g].row].prio, victim = g, at = i, before = prev;
        if (victim != f) {  /* FlowAwarePriorityScheduler.remove */
            FlowQ *q = &P->flows[at];
            if (before < 0)
                q->head = R->hops[victim].next;
            else
                R->hops[before].next = R->hops[victim].next;
            if (q->tail == victim)
                q->tail = before;
            if (q->head < 0)
                memmove(P->flows + at, P->flows + at + 1, (size_t)(--P->nflows - at) * sizeof(FlowQ));
            P->bytes -= R->live[R->hops[victim].row].bytes;
            P->queued--;
        }
    }
    if (live_drop(R, victim, t) < 0)
        return -1;
    return victim != f;
}

/* OutputPort.enqueue for hop f at t (Router.receive, the injector or a live
 * host's port): admitted by a finite buffer, keyed as its scheduler keys it,
 * then served at once by an idle port, else queued (behind the hop in
 * flight, or by a down port). */
static int
rec_arrive(Rec *R, int64_t f, double t)
{
    Hop *h = &R->hops[f];
    Row *row;
    Port *P = &R->ports[h->port];
    double key = 0.0, bytes;
    Py_ssize_t j;
    int admitted;
    h->arr = t;
    if (P->finite) {
        if ((admitted = live_admit(R, f, t)) <= 0)
            return admitted;
        h = &R->hops[f];  /* the drop called back into Python */
        bytes = R->live[h->row].bytes;
        if (P->cur == IDLE)  /* enqueued and dequeued at once; the heap kinds empty to 0.0 */
            P->bytes = P->kind > K_SRPT ? 0.0 : (P->bytes + bytes) - bytes;
        else
            P->bytes += bytes, P->queued++;
    }
    row = &R->rows[h->row];
    if (P->kind == K_KEY)
        key = h->key;
    else if (P->kind == K_LSTF)
        key = isnan(row->slack) ? INFINITY : (row->slack + t) + h->tx;
    else if (P->kind == K_FIFO_PLUS)
        key = t - row->waited;
    else if (P->kind == K_FQ) {
        double *tag = &R->tags[h->next];
        *tag = key = (*tag > P->vt ? *tag : P->vt) + row->size;
    }
    if (P->cur == IDLE) {
        if (P->kind == K_FQ && key > P->vt)
            P->vt = key;
        P->cur = f;
        h->start = t;
        return ev_push(&R->heap, t + h->tx, R->seq++, f);
    }
    if (P->kind > K_SRPT)
        return ev_push(&P->heap, key, R->enqueued++, f);
    if (P->kind != K_SRPT) {
        if (P->head + P->len == P->cap && P->head > 0 && P->head >= P->len) {
            memmove(P->q, P->q + P->head, (size_t)P->len * sizeof(int64_t));
            P->head = 0;
        }
        if ((P->q = grow(P->q, &P->cap, P->head + P->len + 1, sizeof(int64_t))) == NULL)
            return -1;
        P->q[P->head + P->len++] = f;
        return 0;
    }
    h->next = -1;
    for (j = 0; j < P->nflows && P->flows[j].flow != row->flow; j++)
        ;
    if (j < P->nflows) {
        R->hops[P->flows[j].tail].next = f;
        P->flows[j].tail = f;
    } else if ((P->flows = grow(P->flows, &P->flows_cap, j + 1, sizeof(FlowQ))) == NULL) {
        return -1;
    } else {
        P->flows[P->nflows++] = (FlowQ){row->flow, f, f};
    }
    return 0;
}

/* The hop port P serves next at t: -1 if none is queued, -2 on an error. */
static int64_t
rec_dequeue(Rec *R, Port *P, double t)
{
    Py_ssize_t i = P->kind == K_FIFO ? 0 : P->len - 1, j, best = -1;
    int64_t f;
    double least, best_least = 0.0;
    if (P->kind > K_SRPT) {
        Ev head;
        if (P->finite)  /* PriorityScheduler._discard_removed, in heapq's own order */
            while (P->heap.size > 0 && P->heap.items[0].code < 0)
                hq_pop(&P->heap);
        if (P->heap.size == 0)
            return -1;
        head = P->finite ? hq_pop(&P->heap) : ev_pop(&P->heap);
        if (P->kind == K_LSTF)  /* the slack pays for the wait (NaN stays NaN) */
            R->rows[R->hops[head.code].row].slack -= t - R->hops[head.code].arr;
        else if (P->kind == K_FQ && head.t > P->vt)
            P->vt = head.t;
        return head.code;
    }
    if (P->kind == K_SRPT) {
        for (j = 0; j < P->nflows; j++) {
            for (f = P->flows[j].head, least = INFINITY; f >= 0; f = R->hops[f].next)
                if (R->rows[R->hops[f].row].prio < least)
                    least = R->rows[R->hops[f].row].prio;
            if (best < 0 || least < best_least)
                best = j, best_least = least;
        }
        if (best < 0)
            return -1;
        f = P->flows[best].head;
        if ((P->flows[best].head = R->hops[f].next) < 0)  /* emptied: the flow leaves */
            memmove(P->flows + best, P->flows + best + 1,
                    (size_t)(--P->nflows - best) * sizeof(FlowQ));
        return f;
    }
    if (P->len == 0)
        return -1;
    if (P->kind == K_RANDOM && P->len > 1) {  /* list.pop(randint(0, n)) */
        PyObject *drawn = PyObject_CallFunction(P->randint, "nn", (Py_ssize_t)0, P->len);
        i = drawn == NULL ? -1 : PyNumber_AsSsize_t(drawn, PyExc_IndexError);
        Py_XDECREF(drawn);
        if (i < 0 && !PyErr_Occurred())
            i += P->len;
        if ((i < 0 || i >= P->len) && !PyErr_Occurred())
            PyErr_SetString(PyExc_IndexError, "pop index out of range");
        if (PyErr_Occurred())
            return -2;
    }
    f = P->q[P->head + i];
    if (i == 0)
        P->head++;
    else
        memmove(P->q + P->head + i, P->q + P->head + i + 1,
                (size_t)(P->len - i - 1) * sizeof(int64_t));
    P->len--;
    return f;
}

/* OutputPort._start_next on P at t: serve the queue head, else go idle. */
static int
rec_serve(Rec *R, Port *P, double t)
{
    Hop *h;
    int64_t g = rec_dequeue(R, P, t);
    if (g < 0) {
        P->cur = IDLE;
        return g == -1 ? 0 : -1;
    }
    h = &R->hops[g];
    if (P->finite) {  /* the scheduler's byte count; the heap kinds empty to 0.0 */
        P->bytes -= R->live[h->row].bytes;
        if (--P->queued == 0 && P->kind > K_SRPT)
            P->bytes = 0.0;
    }
    R->rows[h->row].waited += t - h->arr;  /* FIFO+: OutputPort._start_next, on every port */
    h->start = t;
    P->cur = g;
    return ev_push(&R->heap, t + h->tx, R->seq++, g);
}

/* OutputPort._finish_transmission for hop f at t: the drop filters, then the
 * delivery (none for a destroyed packet) before the next service. */
static int
rec_finish(Rec *R, int64_t f, double t)
{
    Hop *h = &R->hops[f];
    Row *row = &R->rows[h->row];
    Port *P = &R->ports[h->port];
    int destroyed = 0;
    h->dep = t;
    if (P->filters != NULL && (destroyed = port_drops(P->filters, t)) < 0)
        return -1;
    if (!destroyed && (f + 1 < row->end || R->push_last)) {
        if (ev_push(&R->heap, t + P->prop, R->seq++, ~f) < 0)
            return -1;
    } else if (!destroyed) {  /* the last delivery, settled */
        row->out = t + P->prop;
        R->seq++;
        R->executed++;
    }
    return rec_serve(R, P, t);
}

/* Host.send for every packet of a flow emitted at t; `emitted` is emit()'s
 * (sizes, route ports, bandwidths, flow size, stamp). */
static int
rec_emit(Rec *R, PyObject *emitted, double t)
{
    PyObject *sizes, *route, *bandwidths, *flow_size, *stamp;
    Py_ssize_t count, hops, i, k, first = R->nrows;
    double key = 0.0, slack = NAN, remaining;
    if (!PyArg_ParseTuple(emitted, "O!O!O!OO:emit", &PyList_Type, &sizes, &PyList_Type, &route,
                          &PyList_Type, &bandwidths, &flow_size, &stamp))
        return -1;
    count = PyList_GET_SIZE(sizes);
    if ((hops = PyList_GET_SIZE(route)) == 0 || PyList_GET_SIZE(bandwidths) != hops) {
        PyErr_SetString(PyExc_ValueError, "emit: a route needs ports, one bandwidth each");
        return -1;
    }
    if (((key = PyFloat_AsDouble(flow_size)) == -1.0 && PyErr_Occurred()) ||
        (stamp != Py_None && (slack = PyFloat_AsDouble(stamp)) == -1.0 && PyErr_Occurred()) ||
        (R->hops = grow(R->hops, &R->hops_cap, R->nhops + count * hops, sizeof(Hop))) == NULL ||
        (R->rows = grow(R->rows, &R->rows_cap, R->nrows + count, sizeof(Row))) == NULL ||
        (R->tags = grow(R->tags, &R->tags_cap, R->ntags + hops, sizeof(double))) == NULL)
        return -1;
    for (k = 0; k < hops; k++)
        R->tags[R->ntags + k] = 0.0;  /* flow_tags.get(flow_id, 0.0) */
    for (i = 0, remaining = key; i < count; i++) {
        Row *row = &R->rows[R->nrows];
        double size = PyFloat_AsDouble(PyList_GET_ITEM(sizes, i));
        *row = (Row){0, R->nflows, NULL, size, 0.0, remaining, slack, 0.0};
        remaining -= size;
        for (k = 0; k < hops; k++) {
            Hop *h = &R->hops[R->nhops++];
            double bandwidth = PyFloat_AsDouble(PyList_GET_ITEM(bandwidths, k));
            *h = (Hop){PyLong_AsLongLong(PyList_GET_ITEM(route, k)), R->nrows, R->ntags + k,
                       size * 8.0 / bandwidth, key, t, t, t};
            if (PyErr_Occurred())
                return -1;
            if (h->port < 0 || h->port >= R->nports) {
                PyErr_Format(PyExc_ValueError, "emit: port %lld out of range", (long long)h->port);
                return -1;
            }
        }
        row->end = R->nhops;
        R->nrows++;
    }
    R->nflows++;
    R->ntags += hops;
    for (i = first; i < R->nrows; i++)  /* each packet's first hop, in emission order */
        if (rec_arrive(R, R->rows[i].end - hops, t) < 0)
            return -1;
    return 0;
}

/* A generator event of a recording or a live run: the emission,
 * intercepted, or a callback run as is.  0 or -1. */
static int
rec_generator(Rec *R, double t)
{
    PyObject *entry, *callback, *out = NULL, *seq;
    R->now = t;
    if ((entry = PyObject_CallOneArg(R->heappop, R->gens)) == NULL)
        return -1;
    callback = PyTuple_GET_ITEM(entry, 3);
    if (PyMethod_Check(callback) && PyMethod_GET_FUNCTION(callback) == R->emit_func) {
        out = PyObject_CallFunctionObjArgs(R->emit, PyMethod_GET_SELF(callback),
                                           PyTuple_GET_ITEM(entry, 0), NULL);
        if (out != NULL && rec_emit(R, out, t) < 0)
            Py_CLEAR(out);
    } else if ((seq = PyLong_FromLongLong(R->seq)) != NULL) {
        if (PyObject_SetAttr(R->sim, s_now, PyTuple_GET_ITEM(entry, 0)) == 0 &&
            PyObject_SetAttr(R->sim, s_sequence, seq) == 0 &&
            (out = PyObject_Call(callback, PyTuple_GET_ITEM(entry, 4), NULL)) != NULL) {
            Py_SETREF(out, PyObject_GetAttr(R->sim, s_sequence));
            if (out != NULL && (R->seq = PyLong_AsLongLong(out)) == -1 && PyErr_Occurred())
                Py_CLEAR(out);
        }
        Py_DECREF(seq);
    }
    Py_DECREF(entry);
    R->executed++;
    if (out == NULL)
        return -1;
    Py_DECREF(out);
    return 0;
}

/* The generator heap's first live entry, as Simulator.run reads it: a
 * cancelled entry at the top is popped uncounted.  1 with its (time, seq),
 * 0 when none is left, -1 on an error. */
static int
rec_top(Rec *R, double *t, int64_t *seq)
{
    while (PyList_GET_SIZE(R->gens) > 0) {
        PyObject *entry = PyList_GET_ITEM(R->gens, 0), *event, *flag;
        int cancelled = 0;
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 5) {
            PyErr_SetString(PyExc_TypeError, "a simulator heap entry must be a 5-tuple");
            return -1;
        }
        if ((event = PyTuple_GET_ITEM(entry, 2)) != Py_None) {
            flag = PyObject_GetAttr(event, s_cancelled);
            cancelled = flag == NULL ? -1 : PyObject_IsTrue(flag);
            Py_XDECREF(flag);
            if (cancelled < 0)
                return -1;
        }
        if (!cancelled) {
            *t = PyFloat_AsDouble(PyTuple_GET_ITEM(entry, 0));
            *seq = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
            return PyErr_Occurred() ? -1 : 1;
        }
        if ((entry = PyObject_CallOneArg(R->heappop, R->gens)) == NULL)
            return -1;
        Py_DECREF(entry);
    }
    return 0;
}

/* The event loop: pop the earliest of the hop heap and (recording, live) the
 * simulator's generator heap in (time, seq) until both are empty, the next
 * event is past the limit or the budget is spent, checking for signals every
 * 65,536 hop events.  0 or -1. */
static int
rec_run(Rec *R)
{
    int64_t steps = 0, top_seq = 0;
    double top_t = 0.0;
    int have_top = R->gens == NULL ? 0 : -1, status = 0;  /* -1: read the top again */
    while (status == 0 && R->executed < R->budget) {
        if (have_top < 0 && (have_top = rec_top(R, &top_t, &top_seq)) < 0)
            return -1;
        if (have_top && (R->heap.size == 0 || top_t < R->heap.items[0].t ||
                         (top_t == R->heap.items[0].t && top_seq < R->heap.items[0].seq))) {
            if (top_t > R->limit)
                break;
            status = rec_generator(R, top_t);
            have_top = -1;
        } else if (R->heap.size > 0 && R->heap.items[0].t <= R->limit) {
            Ev ev = ev_pop(&R->heap);
            int64_t f = ev.code;
            if (f < 0) {  /* hop ~f's link delivery: Router.receive, or Host.receive */
                Row *row = &R->rows[R->hops[~f].row];
                if (~f + 1 < row->end)
                    status = rec_arrive(R, ~f + 1, ev.t);
                else if (row->packet != NULL)
                    status = live_deliver(R, ~f, ev.t);
                else
                    row->out = ev.t;
            } else if (f < INJECT) {
                if (R->ports[R->hops[f].port].cur != f)
                    continue;  /* cancelled by a down-toggle: discarded uncounted */
                status = rec_finish(R, f, ev.t);
            } else if (f == INJECT) {
                /* ReplayInjector._advance: inject every record due now, then
                 * re-arm the cursor at the next ingress time (front range). */
                for (; status == 0 && R->cursor < R->nrows && R->ingress[R->cursor] <= ev.t; R->cursor++)
                    status = rec_arrive(R, R->cursor ? R->rows[R->cursor - 1].end : 0, ev.t);
                if (status == 0 && R->cursor < R->nrows)
                    status = ev_push(&R->heap, R->ingress[R->cursor], R->fseq++, INJECT);
            } else {
                /* Port p's outage toggle, INJECT + 1 + 2p + up.  Down
                 * (FaultInjector._link_down): the packet in flight is
                 * destroyed (its finish is now stale) and the queue held.
                 * Up: FaultInjector._link_up -> OutputPort._start_next. */
                Port *P = &R->ports[(f - INJECT - 1) >> 1];
                if (!((f - INJECT - 1) & 1))
                    P->cur = DOWN;
                else if (P->cur == DOWN)
                    status = rec_serve(R, P, ev.t);
            }
            R->now = ev.t;
            R->executed++;
            if (R->reread)  /* a live callback ran: its heap may have a new top */
                have_top = -1, R->reread = 0;
            if ((++steps & 0xFFFF) == 0 && status == 0)
                status = PyErr_CheckSignals();
        } else {
            break;
        }
    }
    return status;
}

/* ((arrival, start_service, departure, output_time), executed): the hop
 * timings as three array('d'), written in place, and output_time a list,
 * None for a packet that never exits. */
static PyObject *
rec_result(Rec *R)
{
    PyObject *module = PyImport_ImportModule("array"), *one = NULL, *times[3] = {NULL};
    PyObject *out = NULL, *result = NULL, *value;
    double *at[3];
    Py_buffer view;
    Py_ssize_t f, i;
    if (module != NULL)
        one = PyObject_CallMethod(module, "array", "s(d)", "d", 0.0);
    for (i = 0; i < 3; i++) {  /* n zeros, then their storage, which nothing else resizes */
        if (one == NULL || (times[i] = PySequence_Repeat(one, R->nhops)) == NULL ||
            PyObject_GetBuffer(times[i], &view, PyBUF_WRITABLE) < 0)
            goto done;
        at[i] = (double *)view.buf;
        PyBuffer_Release(&view);
    }
    for (f = 0; f < R->nhops; f++) {
        at[0][f] = R->hops[f].arr;
        at[1][f] = R->hops[f].start;
        at[2][f] = R->hops[f].dep;
    }
    if ((out = PyList_New(R->nrows)) == NULL)
        goto done;
    for (f = 0; f < R->nrows; f++) {
        value = isnan(R->rows[f].out) ? Py_NewRef(Py_None) : PyFloat_FromDouble(R->rows[f].out);
        if (value == NULL)
            goto done;
        PyList_SET_ITEM(out, f, value);
    }
    result = Py_BuildValue("(OOOO)L", times[0], times[1], times[2], out, (long long)R->executed);
done:
    for (i = 0; i < 3; i++)
        Py_XDECREF(times[i]);
    Py_XDECREF(out);
    Py_XDECREF(one);
    Py_XDECREF(module);
    return result;
}

static void
rec_free(Rec *R)
{
    Py_ssize_t i;
    for (i = 0; R->ports != NULL && i < R->nports; i++) {
        Py_XDECREF(R->ports[i].randint);
        Py_XDECREF(R->ports[i].filters);
        Py_XDECREF(R->ports[i].name);
        Py_XDECREF(R->ports[i].drop);
        Py_XDECREF(R->ports[i].deliver);
        free(R->ports[i].q);
        free(R->ports[i].heap.items);
        free(R->ports[i].flows);
    }
    for (i = 0; R->live != NULL && i < R->nrows; i++) {  /* a live run that raised */
        Py_XDECREF(R->rows[i].packet);
        Py_XDECREF(R->live[i].cursors);
    }
    Py_XDECREF(R->heappop);
    free(R->ports);
    free(R->hops);
    free(R->rows);
    free(R->live);
    free(R->free);
    free(R->tags);
    free(R->ingress);
    free(R->heap.items);
}

/* ------------------------------------------------------------------ */
/* run_flat_replay                                                    */
/* ------------------------------------------------------------------ */
/* A fault plan, ((port, filters, windows), ...) in install order: each
 * port's filters as a tuple and its (down, up) windows as toggle events.
 * 0 or -1. */
static int
load_faults(Rec *R, PyObject *plan)
{
    PyObject *fast = PySequence_Fast(plan, "faults must be a sequence");
    PyObject *filters, *windows, *wins;
    Py_ssize_t i, k, port;
    double at[2];
    for (i = 0; fast != NULL && i < PySequence_Fast_GET_SIZE(fast); i++) {
        if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(fast, i), "nOO:faults",
                              &port, &filters, &windows))
            break;
        if (port < 0 || port >= R->nports) {
            PyErr_Format(PyExc_ValueError, "faulted port %zd out of range for %zd ports",
                         port, R->nports);
            break;
        }
        Py_XSETREF(R->ports[port].filters, PySequence_Tuple(filters));
        wins = R->ports[port].filters == NULL ? NULL
               : PySequence_Fast(windows, "fault windows must be a sequence");
        for (k = 0; wins != NULL && k < PySequence_Fast_GET_SIZE(wins); k++)
            if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(wins, k), "dd:window", &at[0], &at[1]) ||
                ev_push(&R->heap, at[0], R->seq++, INJECT + 1 + 2 * port) < 0 ||
                ev_push(&R->heap, at[1], R->seq++, INJECT + 2 + 2 * port) < 0)
                break;
        Py_XDECREF(wins);
        if (PyErr_Occurred())
            break;
    }
    Py_XDECREF(fast);
    return PyErr_Occurred() ? -1 : 0;
}

static PyObject *
kernel_run_flat_replay(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"ingress", "off", "hop_port", "hop_tx", "prop", "kind", "keys",
                               "max_events", "faults", NULL};
    PyObject *ingress, *off, *hop_port, *hop_tx, *prop, *keys, *result = NULL;
    PyObject *max_events = Py_None, *faults = Py_None;
    int64_t *offs = NULL;
    int kind, overflow = 0;
    Py_ssize_t r, f, n;
    Rec R;

    memset(&R, 0, sizeof(R));
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOiO|OO:run_flat_replay", keywords,
                                     &ingress, &off, &hop_port, &hop_tx, &prop, &kind, &keys,
                                     &max_events, &faults))
        return NULL;
    if (kind != K_FIFO && kind != K_KEY && kind != K_LSTF)
        return PyErr_Format(PyExc_ValueError, "replay kind %d is not FIFO, keyed or LSTF", kind);
    if (kind != K_FIFO && keys == Py_None)
        return PyErr_Format(PyExc_ValueError, "replay kind %d requires keys", kind);
    R.budget = max_events == Py_None ? INT64_MAX
                                     : PyLong_AsLongLongAndOverflow(max_events, &overflow);
    if (R.budget == -1 && PyErr_Occurred())
        return NULL;
    /* an overflowing budget is unreachably large: effectively none */
    R.budget = overflow > 0 ? INT64_MAX : overflow < 0 || R.budget < 0 ? 0 : R.budget;
    R.push_last = R.budget < INT64_MAX;
    R.limit = INFINITY;
    if ((n = R.nrows = PyObject_Length(ingress)) < 0 || (R.nports = PyObject_Length(prop)) < 0)
        return NULL;
    R.ingress = (double *)malloc((size_t)(n + 1) * sizeof(double));
    R.rows = (Row *)malloc((size_t)(n + 1) * sizeof(Row));
    R.ports = (Port *)calloc((size_t)R.nports + 1, sizeof(Port));
    offs = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
    if (R.ingress == NULL || R.rows == NULL || R.ports == NULL || offs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (scatter(ingress, "ingress", n, R.ingress, sizeof(double), 0) < 0 ||
        scatter(off, "off", n + 1, offs, sizeof(int64_t), 1) < 0 ||
        scatter(prop, "prop", R.nports, &R.ports[0].prop, sizeof(Port), 0) < 0)
        goto done;
    /* The loop indexes hops, rows and ports unchecked: every packet needs a
     * hop, each hop array off[n] entries and each port an index in range. */
    if (offs[0] != 0) {
        PyErr_Format(PyExc_ValueError, "off[0] must be 0, got %lld", (long long)offs[0]);
        goto done;
    }
    for (r = 0; r < n; r++) {
        if (offs[r] >= offs[r + 1]) {
            PyErr_Format(PyExc_ValueError, "packet %zd has no hops (off[%zd]=%lld, off[%zd]=%lld)",
                         r, r, (long long)offs[r], r + 1, (long long)offs[r + 1]);
            goto done;
        }
        R.rows[r] = (Row){offs[r + 1], 0, NULL, 0.0, NAN, 0.0, NAN, 0.0};
    }
    R.nhops = (Py_ssize_t)offs[n];
    if ((R.hops = (Hop *)calloc((size_t)R.nhops + 1, sizeof(Hop))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (scatter(hop_port, "hop_port", R.nhops, &R.hops[0].port, sizeof(Hop), 1) < 0 ||
        scatter(hop_tx, "hop_tx", R.nhops, &R.hops[0].tx, sizeof(Hop), 0) < 0 ||
        (kind == K_LSTF && scatter(keys, "keys", n, &R.rows[0].slack, sizeof(Row), 0) < 0) ||
        (kind == K_KEY && scatter(keys, "keys", R.nhops, &R.hops[0].key, sizeof(Hop), 0) < 0))
        goto done;
    for (r = 0, f = 0; f < R.nhops; f++) {
        if (R.hops[f].port < 0 || R.hops[f].port >= R.nports) {
            PyErr_Format(PyExc_ValueError, "hop_port[%zd]=%lld out of range for %zd ports",
                         f, (long long)R.hops[f].port, R.nports);
            goto done;
        }
        if (f == R.rows[r].end)
            r++;
        R.hops[f].row = r;
    }
    for (f = 0; f < R.nports; f++)
        R.ports[f].kind = kind, R.ports[f].cur = IDLE;
    /* FaultInjector.install's toggles and ReplayInjector.install's cursor,
     * armed at the first ingress time (an empty replay arms nothing); the
     * heap orders by (time, seq), whatever the order of the pushes. */
    R.fseq = -((int64_t)1 << 62);
    if ((faults == Py_None || load_faults(&R, faults) == 0) &&
        (n == 0 || ev_push(&R.heap, R.ingress[0], R.fseq++, INJECT) == 0) && rec_run(&R) == 0)
        result = rec_result(&R);
done:
    free(offs);
    rec_free(&R);
    return result;
}

PyDoc_STRVAR(run_flat_replay_doc,
"run_flat_replay(ingress, off, hop_port, hop_tx, prop, kind, keys,\n"
"                max_events=None, faults=None)\n"
"--\n\n"
"Replay packets (ingress time, hops off[j]:off[j+1]: port and transmission\n"
"delay; prop: per port) to completion, or for max_events events, with every\n"
"port of kind K_FIFO, K_KEY (keys: per hop) or K_LSTF (keys: slack per\n"
"packet); faults is ((port, drop_filters, outage_windows), ...) in install\n"
"order.  Every other input is an array: 'q' for off and hop_port, 'd' for\n"
"the rest.  Returns ((arrival, start_service, departure, output_time),\n"
"executed), the hop timings as array('d'): a hop never reached keeps 0.0\n"
"and a packet that never exits (destroyed, or in flight when the budget ran\n"
"out) has None in the output_time list, bit-identical to the OO engine.");

/* ------------------------------------------------------------------ */
/* run_flat_record                                                    */
/* ------------------------------------------------------------------ */
static PyObject *
kernel_run_flat_record(PyObject *self, PyObject *args)
{
    PyObject *ports, *seq, *result = NULL;
    Py_ssize_t i;
    Rec R;

    memset(&R, 0, sizeof(R));
    if (!PyArg_ParseTuple(args, "OO!OOO!:run_flat_record", &R.sim, &PyList_Type, &R.gens,
                          &R.emit, &R.emit_func, &PyList_Type, &ports) ||
        (R.heappop = PyImport_ImportModule("heapq")) == NULL)
        return NULL;
    Py_SETREF(R.heappop, PyObject_GetAttrString(R.heappop, "heappop"));
    R.budget = INT64_MAX;
    R.limit = INFINITY;
    R.nports = PyList_GET_SIZE(ports);
    if (R.heappop == NULL)
        goto done;
    if ((R.ports = (Port *)calloc((size_t)R.nports + 1, sizeof(Port))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < R.nports; i++) {  /* (kind, propagation delay, randint or None) */
        Port *P = &R.ports[i];
        if (!PyArg_ParseTuple(PyList_GET_ITEM(ports, i), "idO", &P->kind, &P->prop, &P->randint))
            goto done;
        Py_INCREF(P->randint);
        P->cur = IDLE;
        if (P->kind < K_RANDOM || P->kind > K_FQ ||
            (P->kind == K_RANDOM && !PyCallable_Check(P->randint))) {
            PyErr_Format(PyExc_ValueError, "port %zd: kind %d, or no randint", i, P->kind);
            goto done;
        }
    }
    if ((seq = PyObject_GetAttrString(R.sim, "_sequence")) == NULL)
        goto done;
    R.seq = PyLong_AsLongLong(seq);
    Py_DECREF(seq);
    if (!PyErr_Occurred() && rec_run(&R) == 0)
        result = rec_result(&R);
done:
    rec_free(&R);
    return result;
}

PyDoc_STRVAR(run_flat_record_doc,
"run_flat_record(sim, heap, emit, emit_func, ports)\n"
"--\n\n"
"Record a built open-loop simulation (heap: sim._heap); ports: (kind, propagation\n"
"delay, randint) per port.  A callback bound to emit_func calls emit(source, time).\n"
"Returns ((arrival, start_service, departure, output_time), events executed),\n"
"the hop timings as array('d') and output_time as a list.");

/* ------------------------------------------------------------------ */
/* run_flat_live                                                      */
/* ------------------------------------------------------------------ */
/* A row with hops [first, first + n) for a live packet: a free one of that
 * hop count, else a new one.  The row index, or -1 with MemoryError. */
static int64_t
live_alloc(Rec *R, Py_ssize_t n)
{
    int64_t r;
    Py_ssize_t i, had = R->free_cap;
    if (n >= R->free_cap) {
        if ((R->free = grow(R->free, &R->free_cap, n + 1, sizeof(int64_t))) == NULL)
            return -1;
        for (i = had; i < R->free_cap; i++)
            R->free[i] = -1;
    }
    if ((r = R->free[n]) >= 0) {
        R->free[n] = R->live[r].base;
        return r;
    }
    if ((R->hops = grow(R->hops, &R->hops_cap, R->nhops + n, sizeof(Hop))) == NULL ||
        (R->rows = grow(R->rows, &R->rows_cap, R->nrows + 1, sizeof(Row))) == NULL ||
        (R->live = grow(R->live, &R->live_cap, R->nrows + 1, sizeof(Live))) == NULL)
        return -1;
    R->live[R->nrows].first = R->nhops;
    R->rows[R->nrows].end = R->nhops += n;
    R->rows[R->nrows].packet = NULL;
    R->live[R->nrows].cursors = NULL;
    return R->nrows++;
}

/* A float attribute of `obj` (None: NaN when `none_ok`).  0 or -1. */
static int
float_attr(PyObject *obj, PyObject *name, int none_ok, double *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = value == Py_None && none_ok ? NAN : PyFloat_AsDouble(value);
    Py_DECREF(value);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* float(fn(*args)).  0 or -1. */
static int
float_call(PyObject *fn, PyObject *const *args, Py_ssize_t nargs, double *out)
{
    PyObject *value = PyObject_Vectorcall(fn, args, (size_t)nargs, NULL);
    if (value == NULL)
        return -1;
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* inject(packet, route, cursors=None): OutputPort.enqueue of a host's port
 * at sim.now, on the kernel.  route is (port ids, bandwidths, FQ tag slots
 * or -1) per hop; cursors a source-routed packet's route_cursor per hop.
 * The packet module reads what the schedulers read: size_bytes, flow_id,
 * header.slack (None: no slack), header.accumulated_wait, flow_weight (FQ)
 * and the flow-aware priority and SJF key through the run's prio_of and
 * key_of; len(hops) marks Host.send's entry.  sim._sequence is read on
 * entry and written back on exit. */
static PyObject *
kernel_live_inject(PyObject *capsule, PyObject *const *args, Py_ssize_t nargs)
{
    Rec *R = (Rec *)PyCapsule_GetContext(capsule);
    PyObject *packet, *route, *ports, *bandwidths, *slots, *cursors = NULL, *value;
    PyObject *header = NULL, *now = NULL, *call[3];
    double size, slack, waited, prio = 0.0, key = 0.0, share, weight;
    int64_t flow, first, r, f;
    Py_ssize_t n, k, base;
    if (R == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "inject: the live run is over");
        return NULL;
    }
    if (nargs < 2 || nargs > 3)
        return PyErr_Format(PyExc_TypeError, "inject takes 2 or 3 arguments, got %zd", nargs);
    packet = args[0];
    route = args[1];
    if (nargs == 3 && args[2] != Py_None && !PyTuple_Check(cursors = args[2]))
        return PyErr_Format(PyExc_TypeError, "inject: cursors must be a tuple");
    if (!PyArg_ParseTuple(route, "O!O!O!:inject", &PyTuple_Type, &ports, &PyTuple_Type, &bandwidths,
                          &PyTuple_Type, &slots))
        return NULL;
    n = PyTuple_GET_SIZE(ports);
    if (n == 0 || PyTuple_GET_SIZE(bandwidths) != n || PyTuple_GET_SIZE(slots) != n ||
        (cursors != NULL && PyTuple_GET_SIZE(cursors) != n))
        return PyErr_Format(PyExc_ValueError, "inject: a route needs ports, with one bandwidth, "
                            "tag slot (and cursor) each");
    if ((value = PyObject_GetAttr(R->sim, s_sequence)) == NULL)
        return NULL;
    R->seq = PyLong_AsLongLong(value);
    Py_DECREF(value);
    if (PyErr_Occurred() || float_attr(packet, s_size, 0, &size) < 0 ||
        (value = PyObject_GetAttr(packet, s_flow_id)) == NULL)
        return NULL;
    flow = PyLong_AsLongLong(value);
    Py_DECREF(value);
    if ((flow == -1 && PyErr_Occurred()) || (value = PyObject_GetAttr(packet, s_hops)) == NULL)
        return NULL;
    base = PyList_Check(value) ? PyList_GET_SIZE(value) : -1;
    Py_DECREF(value);
    if (base < 4)
        return PyErr_Format(PyExc_TypeError, "inject: a sent packet's hops must be a list");
    if ((header = PyObject_GetAttr(packet, s_header)) == NULL)
        return NULL;
    call[0] = packet;
    call[1] = call[2] = now = PyFloat_FromDouble(R->now);
    share = size;
    if (now == NULL || float_attr(header, s_slack, 1, &slack) < 0 ||
        float_attr(header, s_waited, 0, &waited) < 0 ||
        (R->prio_of != Py_None && float_call(R->prio_of, call, 1, &prio) < 0) ||
        (R->key_of != Py_None && float_call(R->key_of, call, 3, &key) < 0) ||
        (R->fq && float_attr(packet, s_flow_weight, 0, &weight) < 0)) {
        Py_XDECREF(now);
        Py_DECREF(header);
        return NULL;
    }
    Py_DECREF(now);
    Py_DECREF(header);
    if (R->fq)  /* FairQueueingScheduler.key: size / max(weight, 1e-12) */
        share = size / (1e-12 > weight ? 1e-12 : weight);
    if ((r = live_alloc(R, n)) < 0)
        return NULL;
    first = R->live[r].first;
    for (k = 0; k < n; k++) {
        Hop *h = &R->hops[first + k];
        double bandwidth = PyFloat_AsDouble(PyTuple_GET_ITEM(bandwidths, k));
        int64_t port = PyLong_AsLongLong(PyTuple_GET_ITEM(ports, k));
        int64_t slot = PyLong_AsLongLong(PyTuple_GET_ITEM(slots, k));
        if (PyErr_Occurred() || port < 0 || port >= R->nports) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError, "inject: port %lld out of range", (long long)port);
            goto fail;
        }
        if (slot >= R->ntags) {  /* a new (port, flow) tag: flow_tags.get(flow_id, 0.0) */
            if ((R->tags = grow(R->tags, &R->tags_cap, slot + 1, sizeof(double))) == NULL)
                goto fail;
            while (R->ntags <= slot)
                R->tags[R->ntags++] = 0.0;
        }
        *h = (Hop){port, r, slot, size * 8.0 / bandwidth, key, NAN, NAN, NAN};
    }
    R->rows[r] = (Row){first + n, flow, Py_NewRef(packet), share, NAN, prio, slack, waited};
    R->live[r] = (Live){size, first, base, Py_XNewRef(cursors)};
    if (rec_arrive(R, first, R->now) < 0 || (value = PyLong_FromLongLong(R->seq)) == NULL)
        return NULL;
    f = PyObject_SetAttr(R->sim, s_sequence, value);
    Py_DECREF(value);
    return f < 0 ? NULL : Py_NewRef(Py_None);
fail:
    R->live[r].cursors = NULL;
    R->rows[r].packet = NULL;
    Py_XDECREF(live_release(R, r));
    return NULL;
}

static PyMethodDef live_inject_def = {
    "inject", (PyCFunction)(void (*)(void))kernel_live_inject, METH_FASTCALL,
    "inject(packet, route, cursors=None)\n--\n\nHand a sent packet to the live run's kernel.",
};

/* Every packet still in the network, written back in its partial OO state:
 * queued, in service or on a wire after the last hop it reached.  0 or -1. */
static int
live_settle(Rec *R)
{
    Py_ssize_t r;
    int64_t last;
    for (r = 0; r < R->nrows; r++) {
        if (R->rows[r].packet == NULL)
            continue;
        for (last = R->live[r].first; last + 1 < R->rows[r].end && !isnan(R->hops[last + 1].arr); last++)
            ;
        if (live_writeback(R, (int64_t)r, last) < 0)
            return -1;
        Py_DECREF(live_release(R, (int64_t)r));
    }
    return 0;
}

static PyObject *
kernel_run_flat_live(PyObject *self, PyObject *args)
{
    PyObject *ports, *install, *value, *capsule = NULL, *inject = NULL, *result = NULL;
    Py_ssize_t i;
    Rec R;

    memset(&R, 0, sizeof(R));
    if (!PyArg_ParseTuple(args, "OO!O!OdOO:run_flat_live", &R.sim, &PyList_Type, &R.gens,
                          &PyList_Type, &ports, &install, &R.limit, &R.prio_of, &R.key_of) ||
        (R.heappop = PyImport_ImportModule("heapq")) == NULL)
        return NULL;
    Py_SETREF(R.heappop, PyObject_GetAttrString(R.heappop, "heappop"));
    R.budget = INT64_MAX;
    R.push_last = 1;
    R.nports = PyList_GET_SIZE(ports);
    if (R.heappop == NULL)
        goto done;
    if ((R.ports = (Port *)calloc((size_t)R.nports + 1, sizeof(Port))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < R.nports; i++) {
        /* (kind, propagation delay, randint or None, buffer bytes (inf: none), node name,
         * OutputPort._drop, Host.receive or None) */
        Port *P = &R.ports[i];
        if (!PyArg_ParseTuple(PyList_GET_ITEM(ports, i), "idOdOOO", &P->kind, &P->prop,
                              &P->randint, &P->buffer, &P->name, &P->drop, &P->deliver))
            goto done;
        Py_INCREF(P->randint);
        Py_INCREF(P->name);
        Py_INCREF(P->drop);
        Py_INCREF(P->deliver);
        P->cur = IDLE;
        P->finite = P->buffer < INFINITY;
        R.fq |= P->kind == K_FQ;
        if (P->kind < K_RANDOM || P->kind > K_FQ ||
            (P->kind == K_RANDOM && !PyCallable_Check(P->randint))) {
            PyErr_Format(PyExc_ValueError, "port %zd: kind %d, or no randint", i, P->kind);
            goto done;
        }
    }
    if ((value = PyObject_GetAttr(R.sim, s_sequence)) == NULL)
        goto done;
    R.seq = PyLong_AsLongLong(value);
    Py_DECREF(value);
    if (PyErr_Occurred() || float_attr(R.sim, s_now, 0, &R.now) < 0 ||
        (capsule = PyCapsule_New(&R, "repro.sim._kernel.live", NULL)) == NULL ||
        PyCapsule_SetContext(capsule, &R) < 0 ||
        (inject = PyCFunction_New(&live_inject_def, capsule)) == NULL ||
        (value = PyObject_CallOneArg(install, inject)) == NULL)
        goto done;
    Py_DECREF(value);
    if (rec_run(&R) == 0 && live_settle(&R) == 0 && (value = PyLong_FromLongLong(R.seq)) != NULL) {
        if (PyObject_SetAttr(R.sim, s_sequence, value) == 0)
            result = Py_BuildValue("Ld", (long long)R.executed, R.now);
        Py_DECREF(value);
    }
done:
    if (capsule != NULL)
        PyCapsule_SetContext(capsule, NULL);  /* a kept inject now raises */
    Py_XDECREF(inject);
    Py_XDECREF(capsule);
    rec_free(&R);
    return result;
}

PyDoc_STRVAR(run_flat_live_doc,
"run_flat_live(sim, heap, ports, install, until, prio_of, key_of)\n"
"--\n\n"
"Run a built closed-loop simulation (heap: sim._heap) until the next event is\n"
"past `until` (inf: until both heaps drain); ports: (kind, propagation delay,\n"
"randint, buffer bytes, node name, OutputPort._drop, Host.receive or None) per\n"
"port.  install(inject) is called first, to hand each host port's packets to\n"
"inject(packet, route, cursors=None); prio_of(packet) is the flow-aware priority\n"
"and key_of(packet, now, now) SJF's key, or None.  Packets delivered, dropped or\n"
"still in the network are written back as the OO engine leaves them.  Returns\n"
"(events executed, the last event's time); sim._sequence is left as Python's.");

/* ------------------------------------------------------------------ */
/* decode_rows: repro-schedule/1 row lines straight into columns.     */
/* ------------------------------------------------------------------ */
/*
 * The storage half of this module.  core/schedule.py::_decoded_parts cuts
 * a stored schedule's decompressed text into blocks of complete lines and
 * hands each block here; the rows land directly in the 15 ScheduleColumns
 * columns, with no row dict, hop list or column pass in between.  The hop
 * offsets and the three hop times are typed: they collect as int64s and
 * doubles in C buffers and reach their arrays by one frombytes per column
 * at the end of a block that was not declined.
 *
 * Exactness is by construction: every value is what json's C scanner
 * makes of the same bytes.  A number is first matched against the JSON
 * number grammar.  A float without an exponent, of at most 19 significant
 * digits and 21 decimal places, is then made in integers alone
 * (exact_double: one division, rounded half-to-even as float() rounds);
 * any other float, and every float without a 128-bit integer type, by
 * PyOS_string_to_double (what float() and json use).  An int of at most 18
 * digits is made exactly in a C integer, a longer one by PyLong_FromString;
 * null is None; a string is taken only when it is ASCII without escapes.
 * A hop time is the double float() makes of that value, and a null start of
 * service or departure is -inf, ScheduleColumns' stand-in for None.
 * Everything else declines the whole block — the caller then decodes the
 * same lines with json, the reference, which either agrees or raises the
 * error naming the packet: NaN, Infinity, true, false, an escape or a
 * non-ASCII byte, an unknown, duplicate or missing key, a path element that
 * is not a string, a hop that is not 4 scalars, a non-int packet_id, a
 * non-numeric ingress_time, output_time or hop time (a null arrival
 * included), a hop time float() would not convert, a line that is not one
 * object.
 *
 * Lines end at '\n' (a '\r' just before it is dropped); between tokens
 * only ' ' and '\t' are whitespace, so a lone '\r' — which the reference's
 * universal newlines would treat as a line break — declines too.  Node
 * names and routes are interned in the caller's memo dict; object identity
 * is not part of the contract.
 */

/* What a row key's value must be; only a V_OPTIONAL key may be absent (None). */
enum { V_SCALAR, V_OPTIONAL, V_INT, V_NUMBER, V_PATH, V_HOPS };

#define KEY(name) name, (Py_ssize_t)sizeof(name) - 1

/* The row keys in on-disk order, each with the ScheduleColumns field it
 * fills (its index in ScheduleColumns.lists()): "hops" fills hop_offset (an
 * array('q')) and the four hop columns after it, the node list and three
 * array('d') of times.  Every other column is a list.  core/schedule.py
 * round-trips one row through both codecs before it uses them, so a table
 * that disagrees with ScheduleColumns is declined, never misparsed. */
static const struct {
    const char *name;
    Py_ssize_t len;
    int column;
    int value;  /* V_* */
} row_keys[] = {
    {KEY("packet_id"), 0, V_INT},        {KEY("flow_id"), 1, V_SCALAR},
    {KEY("src"), 2, V_SCALAR},           {KEY("dst"), 3, V_SCALAR},
    {KEY("size_bytes"), 4, V_SCALAR},    {KEY("ingress_time"), 5, V_NUMBER},
    {KEY("output_time"), 6, V_NUMBER},   {KEY("path"), 7, V_PATH},
    {KEY("hops"), 10, V_HOPS},           {KEY("flow_size_bytes"), 8, V_OPTIONAL},
    {KEY("deadline"), 9, V_OPTIONAL},
};
#define N_KEYS ((int)(sizeof(row_keys) / sizeof(row_keys[0])))
#define N_COLUMNS 15

/* Where the "hops" key's columns start: hop_offset, the node list, then
 * the three times. */
static int
hops_column(void)
{
    int k = 0;
    while (row_keys[k].value != V_HOPS)
        k++;
    return row_keys[k].column;
}

/* The typecode column `i` is stored as ('q' or 'd'), or 0 for a list. */
static char
column_code(int i)
{
    int first = hops_column();
    return i == first ? 'q' : i > first + 1 && i <= first + 4 ? 'd' : 0;
}

/* The columns of `columns` into `cols` (borrowed) and a view of each typed
 * one into `views` (released by release_views); -1 with TypeError, no view
 * held, unless it holds ScheduleColumns' 15 columns. */
static int
column_views(PyObject *columns, PyObject **cols, Py_buffer *views)
{
    int i;
    if (PyTuple_GET_SIZE(columns) != N_COLUMNS) {
        PyErr_SetString(PyExc_TypeError, "columns must be ScheduleColumns' 15 columns");
        return -1;
    }
    for (i = 0; i < N_COLUMNS; i++) {
        char code = column_code(i);
        cols[i] = PyTuple_GET_ITEM(columns, i);
        views[i].obj = NULL;
        if (code != 0 && typed_view(cols[i], "a hop column", code, &views[i]) < 0)
            break;
        if (code == 0 && !PyList_Check(cols[i])) {
            PyErr_Format(PyExc_TypeError, "column %d must be a list, not %.100s", i,
                         Py_TYPE(cols[i])->tp_name);
            break;
        }
    }
    if (i == N_COLUMNS)
        return 0;
    while (i-- > 0)
        if (views[i].obj != NULL)
            PyBuffer_Release(&views[i]);
    return -1;
}

static void
release_views(Py_buffer *views)
{
    int i;
    for (i = 0; i < N_COLUMNS; i++)
        if (views[i].obj != NULL)
            PyBuffer_Release(&views[i]);
}

/* A growable byte buffer (PyMem). */
typedef struct {
    char *buf;
    Py_ssize_t len, cap;
} Buf;

/* Append s[:n]: 0, or -1 with MemoryError. */
static int
buf_put(Buf *b, const void *s, Py_ssize_t n)
{
    if (n == 0)
        return 0;
    if (b->len + n > b->cap) {
        Py_ssize_t cap = b->cap > 0 ? b->cap : 1 << 12;
        char *grown;
        while (b->len + n > cap)
            cap *= 2;
        if ((grown = (char *)PyMem_Realloc(b->buf, (size_t)cap)) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        b->buf = grown;
        b->cap = cap;
    }
    memcpy(b->buf + b->len, s, (size_t)n);
    b->len += n;
    return 0;
}

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
    Buf typed[4];       /* the block's hop offsets (int64), then its three hop times (double) */
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

#ifdef __SIZEOF_INT128__
/* The double nearest the float s..end (see decode_rows above), else 0.
 * With w its digits, d = 10**places < 2**70, and w << shift fits 128 bits
 * with a 54-55-bit quotient Q = (w << shift) / d, which rounds
 * half-to-even to 53 bits on its dropped bits and the remainder. */
static int
exact_double(const char *s, const char *end, double *out)
{
    const char *p = s + (*s == '-');
    uint64_t w = 0, q, m, rest, half = (uint64_t)1 << 63;
    unsigned __int128 d = 1, num;
    int digits = 0, frac = 0, places = 0, shift, k;
    for (; p < end; p++) {
        if (*p == '.' && (frac = 1))
            continue;
        if (*p == 'e' || *p == 'E' || (places += frac) > 21
            || ((w != 0 || *p != '0') && ++digits > 19))
            return 0;
        w = w * 10 + (uint64_t)(*p - '0');
    }
    while (places-- > 0)
        d *= 10;
    shift = __builtin_clzll(w | 1) - 10             /* 54 - bits of w + bits of d */
            + (d >> 64 ? 128 - __builtin_clzll((uint64_t)(d >> 64)) : 64 - __builtin_clzll((uint64_t)d));
    num = (unsigned __int128)w << (shift = shift < 0 ? 0 : shift);
    q = (uint64_t)(num / d);
    k = 11 - __builtin_clzll(q | half >> 10);       /* Q's bits past 53: 1 or more */
    rest = q << (64 - k);                           /* those bits, left-aligned */
    m = (q >> k) + (rest > half || (rest == half && (num % d != 0 || (q >> k) & 1)));
    *out = ldexp(*s == '-' ? -(double)m : (double)m, k - shift);
    return 1;
}
#else
#define exact_double(s, end, out) ((void)(out), 0)  /* PyOS_string_to_double */
#endif

/* Match the JSON number grammar at r->p and move past the number; *digits
 * is where its digits start.  1 for a float (a fraction or an exponent), 0
 * for an int, -1 when it declines. */
static int
number_span(Reader *r, const char **digits)
{
    const char *q = r->p;
    const char *why = NULL;
    int is_float = 0;
    if (q < r->end && *q == '-')
        q++;
    *digits = q;
    if (q < r->end && *q == '0')
        q++;
    else if (is_digit(r, q) && *q != '0')
        while (is_digit(r, q))
            q++;
    else
        why = "-Infinity or a malformed number";
    if (why == NULL && q < r->end && *q == '.') {
        if (!is_digit(r, ++q))
            why = "a malformed number";
        while (is_digit(r, q))
            q++;
        is_float = 1;
    }
    if (why == NULL && q < r->end && (*q == 'e' || *q == 'E')) {
        q++;
        if (q < r->end && (*q == '+' || *q == '-'))
            q++;
        if (!is_digit(r, q))
            why = "a malformed number";
        while (is_digit(r, q))
            q++;
        is_float = 1;
    }
    r->p = q;
    return why != NULL ? decline(r, why) : is_float;
}

/* The digits..end of an int of at most 18 digits (< 10**18 fits a long long). */
static long long
short_int(const char *s, const char *digits, const char *end)
{
    long long v = 0;
    for (; digits < end; digits++)
        v = v * 10 + (*digits - '0');
    return *s == '-' ? -v : v;
}

/* The JSON number at r->p, converted as json's scanner converts it;
 * *is_int tells an int (no fraction, no exponent) from a float. */
static PyObject *
number_value(Reader *r, int *is_int)
{
    const char *s = r->p, *q, *digits;
    char stack[64], *buf, *stop;
    Py_ssize_t n;
    PyObject *value = NULL;
    Recent *slot = NULL;
    int is_float = number_span(r, &digits);

    if (is_float < 0)
        return NULL;
    q = r->p;
    *is_int = !is_float;
    if (!is_float && q - digits <= 18)
        return PyLong_FromLongLong(short_int(s, digits, q));
    n = q - s;
    if (is_float) {
        double x;
        slot = recent_slot(r->recent, s, n);
        if ((value = recent_get(slot, s, n)) != NULL)
            return value;
        if (exact_double(s, q, &x)) {
            if ((value = PyFloat_FromDouble(x)) != NULL)
                recent_put(slot, s, n, value);
            return value;
        }
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

/* The hop time at r->p, appended to `times` as the double float() makes of
 * json's value; null is -inf where the time is `optional`. */
static int
time_value(Reader *r, int optional, Buf *times)
{
    const char *s = r->p, *digits;
    double t;
    int is_float, is_int;
    if (optional && r->end - r->p >= 4 && memcmp(r->p, "null", 4) == 0) {
        r->p += 4;
        t = -INFINITY;
        return buf_put(times, &t, sizeof(t));
    }
    if (r->p >= r->end || (*r->p != '-' && (*r->p < '0' || *r->p > '9')))
        return decline(r, "a hop time that is not a number");
    if ((is_float = number_span(r, &digits)) < 0)
        return -1;
    if (!is_float && r->p - digits <= 18)
        t = (double)short_int(s, digits, r->p);  /* int64 -> double rounds as float() does */
    else if (!is_float || !exact_double(s, r->p, &t)) {
        PyObject *value;
        r->p = s;  /* the rare rest: json's value, then float() of it */
        if ((value = number_value(r, &is_int)) == NULL)
            return -1;
        t = PyFloat_AsDouble(value);
        Py_DECREF(value);
        if (t == -1.0 && PyErr_Occurred()) {
            PyErr_Clear();
            return decline(r, "a hop time float() would not convert");
        }
    }
    return buf_put(times, &t, sizeof(t));
}

/* The array of [node, arrival, start_service, departure] hops at r->p: the
 * nodes appended to `nodes`, the times to r->typed[1..3]. */
static int
hops_value(Reader *r, PyObject *nodes)
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
        PyObject *node;
        int appended;
        if (expect(r, '[', "a hop that is not an array") < 0)
            return -1;
        skip_ws(r);
        if ((node = scalar_value(r)) == NULL)
            return -1;
        appended = PyList_Append(nodes, node);
        Py_DECREF(node);
        if (appended < 0)
            return -1;
        for (i = 1; i < 4; i++) {
            if (expect(r, ',', "a hop that is not 4 elements") < 0)
                return -1;
            skip_ws(r);
            if (time_value(r, i > 1, &r->typed[i]) < 0)
                return -1;
        }
        if (expect(r, ']', "a hop that is not 4 elements") < 0)
            return -1;
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
row_value(Reader *r, PyObject **cols)
{
    PyObject *values[N_KEYS] = {NULL};
    unsigned seen = 0;
    int k, kind, is_int, status = -1;

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
            kind = row_keys[k].value;
            if (kind == V_HOPS) {
                if (hops_value(r, cols[row_keys[k].column + 1]) < 0)
                    goto done;
            } else if (kind == V_PATH) {
                if ((values[k] = route_value(r)) == NULL)
                    goto done;
            } else if (kind == V_INT || kind == V_NUMBER) {
                const char *why = kind == V_INT ? "an id that is not an int"
                                                : "a time that is not a number";
                if (r->p >= r->end || (*r->p != '-' && (*r->p < '0' || *r->p > '9'))) {
                    decline(r, why);
                    goto done;
                }
                if ((values[k] = number_value(r, &is_int)) == NULL)
                    goto done;
                if (kind == V_INT && !is_int) {
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
    for (k = 0; k < N_KEYS; k++)
        if (row_keys[k].value != V_OPTIONAL && !(seen & (1u << k))) {
            r->key = row_keys[k].name;
            decline(r, "a missing key");
            goto done;
        }
    for (k = 0; k < N_KEYS; k++) {
        if (row_keys[k].value == V_HOPS) {
            /* hop_offset: the hops so far, the node list's length after this row's */
            int64_t end = PyList_GET_SIZE(cols[row_keys[k].column + 1]);
            if (buf_put(&r->typed[0], &end, sizeof(end)) < 0)
                goto done;
        } else if (PyList_Append(cols[row_keys[k].column], values[k] != NULL ? values[k] : Py_None) < 0) {
            goto done;
        }
    }
    status = 0;
done:
    for (k = 0; k < N_KEYS; k++)
        Py_XDECREF(values[k]);
    return status;
}

/* Append the block's typed buffers to their arrays, one frombytes each. */
static int
flush_typed(Reader *r, PyObject **cols)
{
    int i, first = hops_column();
    for (i = 0; i < 4; i++) {
        PyObject *view, *done;
        if (r->typed[i].len == 0)
            continue;
        if ((view = PyMemoryView_FromMemory(r->typed[i].buf, r->typed[i].len, PyBUF_READ)) == NULL)
            return -1;
        done = PyObject_CallMethod(cols[first + (i == 0 ? 0 : i + 1)], "frombytes", "O", view);
        Py_DECREF(view);
        if (done == NULL)
            return -1;
        Py_DECREF(done);
    }
    return 0;
}

static PyObject *
kernel_decode_rows(PyObject *self, PyObject *args)
{
    const char *data, *line, *stop;
    Py_ssize_t size, first, rows = 0;
    PyObject *memo, *columns, *cols[N_COLUMNS], *result = NULL;
    Py_buffer views[N_COLUMNS];
    Reader r;
    int i;

    if (!PyArg_ParseTuple(args, "y#O!nO!:decode_rows", &data, &size, &PyDict_Type, &memo,
                          &first, &PyTuple_Type, &columns) ||
        column_views(columns, cols, views) < 0)
        return NULL;
    release_views(views);  /* checked only: an array exporting a view cannot grow */
    memset(&r, 0, sizeof(r));
    r.memo = memo;
    r.route = PyList_New(0);
    r.recent = (Recent *)PyMem_Calloc((size_t)1 << RECENT_BITS, sizeof(Recent));
    if (r.route == NULL || r.recent == NULL) {
        Py_XDECREF(r.route);
        PyMem_Free(r.recent);
        return r.route == NULL ? NULL : PyErr_NoMemory();
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
        if (row_value(&r, cols) < 0) {
            if (r.why == NULL)
                goto done;  /* a Python error: raise it */
            goto declined;
        }
        rows++;
    }
    if (flush_typed(&r, cols) == 0)
        result = PyLong_FromSsize_t(rows);
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
    Py_DECREF(r.route);
    for (i = 0; i < 1 << RECENT_BITS; i++)
        Py_XDECREF(r.recent[i].value);
    PyMem_Free(r.recent);
    for (i = 0; i < 4; i++)
        PyMem_Free(r.typed[i].buf);
    return result;
}

PyDoc_STRVAR(decode_rows_doc,
"decode_rows(block, memo, first, columns)\n"
"--\n\n"
"Append a block of repro-schedule/1 row lines to `columns`, ScheduleColumns'\n"
"15 columns (ScheduleColumns.lists()), and return the rows read.  Returns a\n"
"str instead — 'packet N: what it saw', N counted on from `first` — when\n"
"the block holds anything json would read differently or reject, leaving\n"
"the columns part-filled; the caller then decodes the block with json into\n"
"fresh ones.  `memo` interns node names and routes.");

/* ------------------------------------------------------------------ */
/* encode_rows: columns straight into repro-schedule/1 row lines.     */
/* ------------------------------------------------------------------ */
/*
 * The mirror of decode_rows.  core/schedule.py's writer hands it the 15
 * ScheduleColumns columns and a row range, and gets back exactly the bytes
 * of json.dumps(row) + "\n" for each row ScheduleColumns.rows would build,
 * with no row dict or hop tuple in between.  A float is spelled by
 * PyOS_double_to_string(v, 'r', 0, Py_DTSF_ADD_DOT_0), the call behind
 * float.__repr__ and so json's; an int exactly; None as null; a str only
 * when it is printable ASCII that json writes unescaped.  The typed hop
 * columns are read through the buffer protocol: offsets as int64s, times
 * as doubles, a start of service or departure of -inf written as null.
 * Anything else declines the block — a non-finite float, a bool or any int
 * or float subclass, an int past 64 bits, a string json would escape, any
 * other type, hop offsets outside the hop columns, a column too short for
 * the rows asked for — and the caller writes it with json, the reference.
 * Nothing here calls back into Python, so the columns cannot change under
 * the borrowed references and buffer views the loop holds.
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
    Buf out;
    Spelled *spelled;   /* 1 << SPELLED_BITS slots */
    const char *why;    /* what declined the block; NULL on a Python error */
    const char *key;    /* the row key it concerns */
} Writer;

static int
put(Writer *w, const char *s, Py_ssize_t n)
{
    return buf_put(&w->out, s, n);
}

#define PUT_LITERAL(w, s) put((w), (s), (Py_ssize_t)sizeof(s) - 1)

static int
refuse(Writer *w, const char *why)
{
    w->why = why;
    return -1;
}

/* The finite double `x` as repr() spells it. */
static int
put_double(Writer *w, double x)
{
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

/* `value` as json.dumps spells it, when it is a type spelled here. */
static int
put_scalar(Writer *w, PyObject *value)
{
    if (value == Py_None)
        return PUT_LITERAL(w, "null");
    if (PyFloat_CheckExact(value))
        return put_double(w, PyFloat_AS_DOUBLE(value));
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

/* Row `j`'s hops: `cols` is hop_offset and the four hop columns after it,
 * `views` their views; `hop_count` is the length every hop column reaches. */
static int
put_hops(Writer *w, PyObject **cols, const Py_buffer *views, Py_ssize_t j, Py_ssize_t hop_count)
{
    const int64_t *off = (const int64_t *)views[0].buf;
    int64_t first = off[j], last = off[j + 1], h;
    int c;
    if (first < 0 || first > last || last > hop_count)
        return refuse(w, "hop offsets outside the hop columns");
    if (PUT_LITERAL(w, "[") < 0)
        return -1;
    for (h = first; h < last; h++) {
        if (put(w, h > first ? ", [" : "[", h > first ? 3 : 1) < 0 ||
            put_scalar(w, PyList_GET_ITEM(cols[1], h)) < 0)
            return -1;
        for (c = 2; c < 5; c++) {  /* arrival, then the optional start of service and departure */
            double t = ((const double *)views[c].buf)[h];
            if (PUT_LITERAL(w, ", ") < 0 ||
                ((c > 2 && t == -INFINITY) ? PUT_LITERAL(w, "null") : put_double(w, t)) < 0)
                return -1;
        }
        if (PUT_LITERAL(w, "]") < 0)
            return -1;
    }
    return PUT_LITERAL(w, "]");
}

/* Row `j`'s line: its keys in on-disk order. */
static int
put_row(Writer *w, PyObject **cols, const Py_buffer *views, Py_ssize_t j, Py_ssize_t hop_count)
{
    int k, status;
    for (k = 0; k < N_KEYS; k++) {
        int c = row_keys[k].column;
        w->key = row_keys[k].name;
        if (put(w, k == 0 ? "{\"" : ", \"", k == 0 ? 2 : 3) < 0 ||
            put(w, row_keys[k].name, row_keys[k].len) < 0 || PUT_LITERAL(w, "\": ") < 0)
            return -1;
        status = row_keys[k].value == V_PATH   ? put_route(w, PyList_GET_ITEM(cols[c], j))
                 : row_keys[k].value == V_HOPS ? put_hops(w, cols + c, views + c, j, hop_count)
                                               : put_scalar(w, PyList_GET_ITEM(cols[c], j));
        if (status < 0)
            return -1;
    }
    return PUT_LITERAL(w, "}\n");
}

/* Entries in column `i`: a list's, or a typed view's. */
static Py_ssize_t
column_length(PyObject **cols, const Py_buffer *views, int i)
{
    return views[i].obj != NULL ? views[i].len / 8 : PyList_GET_SIZE(cols[i]);
}

static PyObject *
kernel_encode_rows(PyObject *self, PyObject *args)
{
    PyObject *columns, *cols[N_COLUMNS], *result = NULL;
    Py_buffer views[N_COLUMNS];
    Py_ssize_t start, stop, j, hop_count = PY_SSIZE_T_MAX;
    Writer w = {0};
    int k, h;

    if (!PyArg_ParseTuple(args, "O!nn:encode_rows", &PyTuple_Type, &columns, &start, &stop) ||
        column_views(columns, cols, views) < 0)
        return NULL;
    if (start < 0 || start > stop) {
        result = PyUnicode_FromString("a row range that is not one");
        goto done;
    }
    for (k = 0; k < N_KEYS; k++) {
        int c = row_keys[k].column, is_hops = row_keys[k].value == V_HOPS;  /* hop_offset: one entry more */
        if (column_length(cols, views, c) < stop + is_hops) {
            result = PyUnicode_FromString("a column shorter than the rows asked for");
            goto done;
        }
        for (h = 1; is_hops && h <= 4; h++)
            if (column_length(cols, views, c + h) < hop_count)
                hop_count = column_length(cols, views, c + h);
    }
    w.spelled = (Spelled *)PyMem_Calloc((size_t)1 << SPELLED_BITS, sizeof(Spelled));
    if (w.spelled == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (j = start; j < stop; j++)
        if (put_row(&w, cols, views, j, hop_count) < 0) {
            if (w.why != NULL)
                result = PyUnicode_FromFormat("packet %R (row %zd): %s [%s]",
                                              PyList_GET_ITEM(cols[row_keys[0].column], j), j,  /* packet_id */
                                              w.why, w.key);
            goto done;
        }
    result = PyBytes_FromStringAndSize(w.out.buf != NULL ? w.out.buf : "", w.out.len);
done:
    release_views(views);
    PyMem_Free(w.out.buf);
    PyMem_Free(w.spelled);
    return result;
}

PyDoc_STRVAR(encode_rows_doc,
"encode_rows(columns, start, stop)\n"
"--\n\n"
"Rows start..stop of ScheduleColumns' 15 columns (a tuple, in field order) as\n"
"repro-schedule/1 lines: the bytes json.dumps(row) + '\\n' gives for each.\n"
"Returns a str instead — 'packet P (row N): what it saw [key]' — when a\n"
"value is one json would spell otherwise or reject; the caller then writes\n"
"the block with json.");

static PyMethodDef kernel_methods[] = {
    {"run_flat_replay", (PyCFunction)(void (*)(void))kernel_run_flat_replay,
     METH_VARARGS | METH_KEYWORDS, run_flat_replay_doc},
    {"run_flat_record", kernel_run_flat_record, METH_VARARGS, run_flat_record_doc},
    {"run_flat_live", kernel_run_flat_live, METH_VARARGS, run_flat_live_doc},
    {"decode_rows", kernel_decode_rows, METH_VARARGS, decode_rows_doc},
    {"encode_rows", kernel_encode_rows, METH_VARARGS, encode_rows_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(kernel_module_doc,
"Compiled flat replay and recording loops and schedule row decoder and\n"
"encoder (hand-written CPython C extension).\n\n"
"Built optionally (a C toolchain is required); repro.sim.compiled wraps\n"
"the import and reports availability, repro.core.replay_compiled\n"
"registers the 'compiled' backend on top of it, repro.sim.flat_record\n"
"records with it, and repro.core.schedule decodes and encodes with it.");

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
    PyObject *module;
    struct {
        PyObject **slot;
        const char *name;
    } names[] = {
        {&s_now, "now"}, {&s_sequence, "_sequence"}, {&s_cancelled, "cancelled"},
        {&s_hops, "hops"}, {&s_header, "header"}, {&s_slack, "slack"},
        {&s_waited, "accumulated_wait"}, {&s_size, "size_bytes"}, {&s_flow_id, "flow_id"},
        {&s_flow_weight, "flow_weight"}, {&s_cursor, "route_cursor"},
    };
    size_t i;
    for (i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if (*names[i].slot == NULL && (*names[i].slot = PyUnicode_InternFromString(names[i].name)) == NULL)
            return NULL;
    if ((module = PyModule_Create(&kernel_module)) == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "COMPILER", KERNEL_COMPILER) < 0 ||
        PyModule_AddStringConstant(module, "TOOLCHAIN",
                                   "cpython-c-api") < 0 ||
        PyModule_AddIntConstant(module, "KERNEL_VERSION", 9) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
