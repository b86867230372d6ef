/* Native replay kernel: `repro.sim.vectorized.run_flat_replay`, compiled.
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

static PyMethodDef kernel_methods[] = {
    {"run_flat_replay", (PyCFunction)(void (*)(void))kernel_run_flat_replay,
     METH_VARARGS | METH_KEYWORDS, run_flat_replay_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(kernel_module_doc,
"Compiled flat replay kernel (hand-written CPython C extension).\n\n"
"Built optionally (a C toolchain is required); repro.sim.compiled wraps\n"
"the import and reports availability, and repro.core.replay_compiled\n"
"registers the 'compiled' backend on top of it.");

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
        PyModule_AddIntConstant(module, "KERNEL_VERSION", 1) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
