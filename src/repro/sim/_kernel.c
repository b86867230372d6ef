/* Native replay kernel: `repro.sim.vectorized.run_flat_replay`, compiled.
 * (The stored-schedule row decoder, `decode_rows`, follows it at the end of
 * this file; see the comment there.)
 *
 * This module is the inner loop of the "compiled" backend
 * (repro.core.replay_compiled).  It is a line-for-line transliteration of
 * the pure-Python kernel in repro/sim/vectorized.py — same event codes,
 * same sequence-number consumption, same float expressions — with the
 * interpreter dispatch removed: the event heap and the per-port priority
 * queues are C structs sifted with inlined comparisons, and every timestamp
 * is a C double (the exact representation CPython floats use), so the
 * output is bit-identical to the Python kernel's and therefore to the OO
 * reference engine's.
 *
 * Float-determinism notes, each load-bearing:
 *
 * - The loop performs only double additions/subtractions in the exact
 *   association order of the Python kernel: `t + hop_prop[f]`,
 *   `t + hop_tx[f]`, `(slack + t) + tx`, `slack -= t - et`.  There are no
 *   multiplications in the loop, so no FMA contraction is possible; the
 *   build nevertheless passes -ffp-contract=off so the guarantee does not
 *   rest on that observation.
 * - Heap ordering is `(time, seq)` / `(key, seq)` with unique sequence
 *   numbers, a strict total order, so *any* correct binary heap pops in
 *   the same order as CPython's heapq over the equivalent tuples; the
 *   comparison `a.t < b.t || (a.t == b.t && a.seq < b.seq)` is exactly
 *   tuple `<` when the third element is never reached.  Keys may be +inf
 *   (IEEE-754 comparisons handle it identically to Python).
 * - Unlike the Python kernel, the LSTF `slack` list is *not* mutated in
 *   place (it is copied into a C array); no caller observes the mutation —
 *   the orchestrator builds a fresh list per replay.
 *
 * The loop below is the Python kernel's one loop (every event — including
 * destination arrivals — goes through the heap and is counted individually)
 * without its fault branches: a fault plan is declined before it gets here.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

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
static PyObject *
kernel_run_flat_replay(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {
        "ingress", "off", "hop_pkt", "hop_port", "hop_tx", "hop_prop",
        "num_ports", "slack", "hop_key", "max_events", NULL,
    };
    PyObject *ingress_obj, *off_obj, *hop_pkt_obj, *hop_port_obj;
    PyObject *hop_tx_obj, *hop_prop_obj;
    PyObject *slack_obj = Py_None, *hop_key_obj = Py_None;
    PyObject *max_events_obj = Py_None;
    Py_ssize_t num_ports;

    double *ingress = NULL, *hop_tx = NULL, *hop_prop = NULL;
    double *slack = NULL, *hop_key = NULL;
    int64_t *off = NULL, *hop_pkt = NULL, *hop_port = NULL;
    int64_t *nxt = NULL, *port_seq = NULL;
    double *arr = NULL, *start = NULL, *dep = NULL, *egress = NULL;
    char *has_egress = NULL, *busy = NULL;
    EvHeap heap = {NULL, 0, 0};
    PeHeap *ports = NULL;
    PyObject *result = NULL;
    Py_ssize_t n = 0, off_len = 0, total_hops = 0, hop_len = 0, p_idx;
    int64_t H, H2, INJ, seq, fseq, cursor, executed, budget;
    int lstf;

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OOOOOOn|OOO:run_flat_replay", keywords,
            &ingress_obj, &off_obj, &hop_pkt_obj, &hop_port_obj,
            &hop_tx_obj, &hop_prop_obj, &num_ports,
            &slack_obj, &hop_key_obj, &max_events_obj))
        return NULL;

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

    /* Output arrays (zero-initialized: unserved hops stay 0.0, matching
     * the Python kernel's [0.0] * total_hops preallocation). */
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
    if (n == 0)
        goto build_result;

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

    /* nxt[f]: arrival event code of the hop after f, or -1 on a last hop. */
    nxt = (int64_t *)malloc((size_t)total_hops * sizeof(int64_t));
    busy = (char *)calloc((size_t)(num_ports > 0 ? num_ports : 1), sizeof(char));
    port_seq = (int64_t *)calloc((size_t)(num_ports > 0 ? num_ports : 1),
                                 sizeof(int64_t));
    ports = (PeHeap *)calloc((size_t)(num_ports > 0 ? num_ports : 1),
                             sizeof(PeHeap));
    if (nxt == NULL || busy == NULL || port_seq == NULL || ports == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    H = (int64_t)total_hops;
    H2 = 2 * H;
    INJ = H2 + (int64_t)n;
    for (p_idx = 0; p_idx < total_hops; p_idx++)
        nxt[p_idx] = H + (int64_t)p_idx + 1;
    for (p_idx = 0; p_idx < n; p_idx++)
        nxt[off[p_idx + 1] - 1] = -1;

    seq = 0;                      /* Simulator._sequence */
    fseq = -((int64_t)1 << 62);  /* Simulator._front_sequence */
    cursor = 0;

    /* ReplayInjector.install(): arm the cursor at the first ingress time. */
    if (ev_push(&heap, ingress[0], fseq, INJ) < 0) {
        PyErr_NoMemory();
        goto done;
    }
    fseq += 1;

    while (heap.size > 0 && executed < budget) {
        Ev ev = ev_pop(&heap);
        double t = ev.t;
        int64_t code = ev.code;
        executed += 1;

        if (code < H) {
            /* OutputPort._finish_transmission for hop f on its port. */
            int64_t f = code;
            int64_t acode, p;
            PeHeap *ph;
            dep[f] = t;
            acode = nxt[f];
            /* Receive is scheduled *before* the port picks its next
             * packet; a last hop's arrival lands at the destination. */
            if (acode < 0) {
                if (ev_push(&heap, t + hop_prop[f], seq, H2 + hop_pkt[f]) < 0)
                    goto nomem;
            } else {
                if (ev_push(&heap, t + hop_prop[f], seq, acode) < 0)
                    goto nomem;
            }
            seq += 1;
            p = hop_port[f];
            ph = &ports[p];
            if (ph->size > 0) {
                Pe head = pe_pop(ph);
                int64_t f2 = head.f;
                if (lstf)
                    slack[hop_pkt[f2]] -= t - head.et;
                start[f2] = t;
                if (ev_push(&heap, t + hop_tx[f2], seq, f2) < 0)
                    goto nomem;
                seq += 1;
            } else {
                busy[p] = 0;
            }

        } else if (code < H2) {
            /* Link delivery at a router: Router.receive. */
            int64_t fn = code - H;
            int64_t p = hop_port[fn];
            double key;
            int64_t s;
            arr[fn] = t;
            if (lstf)
                key = (slack[hop_pkt[fn]] + t) + hop_tx[fn];
            else
                key = hop_key[fn];
            s = port_seq[p];
            port_seq[p] = s + 1;
            if (busy[p]) {
                if (pe_push(&ports[p], key, s, fn, t) < 0)
                    goto nomem;
            } else {
                /* Idle port: the queue is empty, serve immediately. */
                start[fn] = t;
                busy[p] = 1;
                if (ev_push(&heap, t + hop_tx[fn], seq, fn) < 0)
                    goto nomem;
                seq += 1;
            }

        } else if (code < INJ) {
            /* Link delivery at the destination: Host.receive. */
            egress[code - H2] = t;
            has_egress[code - H2] = 1;

        } else {
            /* ReplayInjector._advance: inject every record due now, then
             * re-arm the cursor at the next ingress time (front range). */
            while (cursor < (int64_t)n && ingress[cursor] <= t) {
                int64_t j = cursor;
                int64_t fn, p, s;
                double key;
                cursor += 1;
                fn = off[j];
                arr[fn] = t;
                p = hop_port[fn];
                if (lstf)
                    key = (slack[j] + t) + hop_tx[fn];
                else
                    key = hop_key[fn];
                s = port_seq[p];
                port_seq[p] = s + 1;
                if (busy[p]) {
                    if (pe_push(&ports[p], key, s, fn, t) < 0)
                        goto nomem;
                } else {
                    start[fn] = t;
                    busy[p] = 1;
                    if (ev_push(&heap, t + hop_tx[fn], seq, fn) < 0)
                        goto nomem;
                    seq += 1;
                }
            }
            if (cursor < (int64_t)n) {
                if (ev_push(&heap, ingress[cursor], fseq, INJ) < 0)
                    goto nomem;
                fseq += 1;
            }
        }
    }

build_result:
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
    free(busy);
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
    return result;
}

PyDoc_STRVAR(run_flat_replay_doc,
"run_flat_replay(ingress, off, hop_pkt, hop_port, hop_tx, hop_prop,\n"
"                num_ports, slack, hop_key, max_events=None)\n"
"--\n\n"
"Native replay kernel; drop-in for repro.sim.vectorized.run_flat_replay.\n"
"Returns (arrival, start_service, departure, egress, executed); output is\n"
"bit-identical to the pure-Python kernel (and hence the OO engine).\n"
"Unlike the Python kernel, the `slack` list is not mutated in place.");

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

static PyMethodDef kernel_methods[] = {
    {"run_flat_replay", (PyCFunction)(void (*)(void))kernel_run_flat_replay,
     METH_VARARGS | METH_KEYWORDS, run_flat_replay_doc},
    {"decode_rows", kernel_decode_rows, METH_VARARGS, decode_rows_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(kernel_module_doc,
"Compiled flat replay kernel and schedule row decoder (hand-written\n"
"CPython C extension).\n\n"
"Built optionally (a C toolchain is required); repro.sim.compiled wraps\n"
"the import and reports availability, repro.core.replay_compiled\n"
"registers the 'compiled' backend on top of it, and\n"
"repro.core.schedule decodes stored schedules with it.");

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
        PyModule_AddIntConstant(module, "KERNEL_VERSION", 2) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
