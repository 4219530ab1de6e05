/* C backend for the canonical-labeling kernel.
 *
 * This is a faithful port of the OCaml kernel (refine.ml's worklist
 * refiner + canon.ml's individualization-refinement search), not an
 * independent algorithm: the two backends must agree bit-for-bit on
 * the chosen leaf (hence certificate and canonical labeling), the
 * discovered generators, the orbit partition, and every search
 * statistic, so the differential harness can treat any disagreement as
 * a bug. Every ordering convention of the OCaml code is load-bearing
 * and replicated here:
 *
 *  - cells are contiguous segments of `elements`, identified by start
 *    index; fragments of a split cell are ordered by ascending
 *    splitter-count;
 *  - the worklist is LIFO; a still-queued split cell keeps its stack
 *    slot (pointing at its first fragment) and the rest are pushed,
 *    otherwise all fragments but the first largest are pushed;
 *  - a splitter's length is read once per pop (fragments created
 *    while processing it are seen by later pops only);
 *  - in-arcs are processed before out-arcs, color groups ascending,
 *    touched cells in ascending start order;
 *  - the target cell is the lowest-id non-singleton, members ascending;
 *  - leaves compare as packed int arrays: node colors by canonical
 *    position, then ((src'*n + dst')*kcol + color) sorted ascending.
 *
 * Packed keys (color*n + node during refinement, the leaf arc codes
 * above) are 64-bit: with large arc colors or large n they exceed
 * 2^31. Node/arc colors, n and m are C ints and n^2 * kcol must fit
 * an OCaml int; Canon.run_c checks all of that before calling in.
 *
 * The interface is bliss-shaped (flat colored-digraph in, canonical
 * labeling + generators out) so an industrial kernel can replace the
 * body without touching the OCaml side. The runtime lock is released
 * for the whole search: inputs are copied out first, results are
 * allocated after reacquiring, so long searches never block other
 * domains' GC.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>

typedef struct {
  int n, m;
  int64_t kcol;
  long max_leaves;
  /* graph */
  int *colors, *asrc, *adst, *acol;
  int *out_off, *out_dst, *out_col, *in_off, *in_src, *in_col;
  /* refinement workspace (port of refine.ml's ws) */
  int *elements, *cell_of, *cell_len, *stack, *cnt, *touched, *tcells;
  int64_t *arcbuf;                /* packed (color * n + node) */
  unsigned char *on_stack, *tmark;
  int sp;
  /* search state */
  int *seg, *sizes;              /* level invariant: [k; size_0..] */
  int *bp;                       /* best invariant path (growable) */
  int bp_len, bp_cap;
  int cert_buf_len;              /* max(1, n + m) */
  int64_t *best_cert, *cert_scratch;
  int *best_label;
  int have_best;
  int *prefix;                   /* individualized vertex per level */
  int *uf;
  int **gens;                    /* discovery order */
  int **stabbuf;                 /* scratch: stabilizer subset of gens */
  int ngens, gens_cap;
  int *seen, *bfsq;              /* orbit BFS, generation-stamped */
  int stamp;
  int *inv_best, *phi;           /* automorphism scratch */
  /* per-fixpoint cell counts, for the refine.cells histogram */
  int *cells_obs;
  int cells_len, cells_cap;
  /* tallies (mirror the OCaml telemetry exactly) */
  long leaves, nodes, prune_orbit, prune_invariant;
  long fixpoints, splitters, queue_hwm;
  int budget, oom;
} K;

static void *xmalloc(K *k, size_t sz)
{
  void *p;
  if (k->oom) return NULL;
  p = malloc(sz ? sz : 1);
  if (!p) k->oom = 1;
  return p;
}

static void k_free(K *k)
{
  int i;
  free(k->colors); free(k->asrc); free(k->adst); free(k->acol);
  free(k->out_off); free(k->out_dst); free(k->out_col);
  free(k->in_off); free(k->in_src); free(k->in_col);
  free(k->elements); free(k->cell_of); free(k->cell_len); free(k->stack);
  free(k->cnt); free(k->touched); free(k->tcells); free(k->arcbuf);
  free(k->on_stack); free(k->tmark);
  free(k->seg); free(k->sizes); free(k->bp);
  free(k->best_cert); free(k->cert_scratch); free(k->best_label);
  free(k->prefix); free(k->uf);
  for (i = 0; i < k->ngens; i++) free(k->gens[i]);
  free(k->gens); free(k->stabbuf);
  free(k->seen); free(k->bfsq);
  free(k->inv_best); free(k->phi);
  free(k->cells_obs);
}

/* ---- int sorts (ports of refine.ml's sort_sub / sort_sub_by) ---- */

/* Sorting plain values has one result whatever the algorithm, so the
   int and int64 instances need not mirror the OCaml code step by step. */
#define DEFINE_SORT(name, T)                                            \
  static void name(T *a, int lo, int hi)                                \
  {                                                                     \
    if (hi - lo < 16) {                                                 \
      int i;                                                            \
      for (i = lo + 1; i < hi; i++) {                                   \
        T x = a[i];                                                     \
        int j = i - 1;                                                  \
        while (j >= lo && a[j] > x) { a[j + 1] = a[j]; j--; }           \
        a[j + 1] = x;                                                   \
      }                                                                 \
    } else {                                                            \
      int mid = (lo + hi) / 2;                                          \
      T x = a[lo], y = a[mid], z = a[hi - 1];                           \
      T pivot = x < y ? (y < z ? y : (x > z ? x : z))                   \
                      : (x < z ? x : (y > z ? y : z));                  \
      int i = lo, j = hi - 1;                                           \
      while (i <= j) {                                                  \
        while (a[i] < pivot) i++;                                       \
        while (a[j] > pivot) j--;                                       \
        if (i <= j) { T t = a[i]; a[i] = a[j]; a[j] = t; i++; j--; }    \
      }                                                                 \
      name(a, lo, j + 1);                                               \
      name(a, i, hi);                                                   \
    }                                                                   \
  }

DEFINE_SORT(sort_ints, int)
DEFINE_SORT(sort_i64, int64_t)

static void sort_by(int *a, const int *key, int lo, int hi)
{
  if (hi - lo < 16) {
    int i;
    for (i = lo + 1; i < hi; i++) {
      int x = a[i], kx = key[x], j = i - 1;
      while (j >= lo && key[a[j]] > kx) { a[j + 1] = a[j]; j--; }
      a[j + 1] = x;
    }
  } else {
    int mid = (lo + hi) / 2;
    int x = key[a[lo]], y = key[a[mid]], z = key[a[hi - 1]];
    int pivot = x < y ? (y < z ? y : (x > z ? x : z))
                      : (x < z ? x : (y > z ? y : z));
    int i = lo, j = hi - 1;
    while (i <= j) {
      while (key[a[i]] < pivot) i++;
      while (key[a[j]] > pivot) j--;
      if (i <= j) { int t = a[i]; a[i] = a[j]; a[j] = t; i++; j--; }
    }
    sort_by(a, key, lo, j + 1);
    sort_by(a, key, i, hi);
  }
}

/* ---- worklist refinement (port of refine_worklist) ---- */

static void push_cell(K *k, int s)
{
  if (!k->on_stack[s]) {
    k->on_stack[s] = 1;
    k->stack[k->sp++] = s;
    if (k->sp > k->queue_hwm) k->queue_hwm = k->sp;
  }
}

static void split_cell(K *k, int s)
{
  int len = k->cell_len[s];
  int *elements = k->elements, *cnt = k->cnt;
  int c0, uniform, was_queued, largest, largest_len, f, j;
  if (len <= 1) return;
  c0 = cnt[elements[s]];
  uniform = 1;
  for (j = s + 1; j < s + len; j++)
    if (cnt[elements[j]] != c0) { uniform = 0; break; }
  if (uniform) return;
  sort_by(elements, cnt, s, s + len);
  was_queued = k->on_stack[s];
  largest = s; largest_len = 0;
  f = s;
  while (f < s + len) {
    int kv = cnt[elements[f]];
    int e = f;
    while (e < s + len && cnt[elements[e]] == kv) {
      k->cell_of[elements[e]] = f;
      e++;
    }
    k->cell_len[f] = e - f;
    k->on_stack[f] = (f == s && was_queued);
    if (e - f > largest_len) { largest = f; largest_len = e - f; }
    f = e;
  }
  f = s;
  while (f < s + len) {
    if (was_queued || f != largest) push_cell(k, f);
    f += k->cell_len[f];
  }
}

static void process_buffer(K *k, int nb)
{
  int n = k->n;
  int64_t *arcbuf = k->arcbuf;
  int *cnt = k->cnt;
  int *touched = k->touched, *tcells = k->tcells;
  int i = 0;
  if (nb <= 0) return;
  sort_i64(arcbuf, 0, nb);
  while (i < nb) {
    int64_t col = arcbuf[i] / n;
    int nt = 0, ntc = 0, j;
    while (i < nb && arcbuf[i] / n == col) {
      int u = (int)(arcbuf[i] % n);
      if (cnt[u] == 0) touched[nt++] = u;
      cnt[u]++;
      i++;
    }
    for (j = 0; j < nt; j++) {
      int s = k->cell_of[touched[j]];
      if (!k->tmark[s]) { k->tmark[s] = 1; tcells[ntc++] = s; }
    }
    sort_ints(tcells, 0, ntc);
    for (j = 0; j < ntc; j++) {
      k->tmark[tcells[j]] = 0;
      split_cell(k, tcells[j]);
    }
    for (j = 0; j < nt; j++) cnt[touched[j]] = 0;
  }
}

static void refine(K *k, const int *p0, int *p_out)
{
  int n = k->n;
  int *elements = k->elements, *cnt = k->cnt;
  int k0 = 0, acc = 0, u, c, i, idx;
  k->sp = 0;
  /* seed the ordered partition from p0 (dense ids) */
  for (u = 0; u < n; u++) if (p0[u] + 1 > k0) k0 = p0[u] + 1;
  for (c = 0; c < k0; c++) cnt[c] = 0;
  for (u = 0; u < n; u++) cnt[p0[u]]++;
  for (c = 0; c < k0; c++) { int sz = cnt[c]; cnt[c] = acc; acc += sz; }
  for (u = 0; u < n; u++) elements[cnt[p0[u]]++] = u;
  for (c = 0; c < k0; c++) cnt[c] = 0;
  i = 0;
  while (i < n) {
    int s = i, cc = p0[elements[s]], j = s;
    while (j < n && p0[elements[j]] == cc) {
      k->cell_of[elements[j]] = s;
      j++;
    }
    k->cell_len[s] = j - s;
    k->on_stack[s] = 0;
    push_cell(k, s);
    i = j;
  }
  /* main loop */
  while (k->sp > 0) {
    int s = k->stack[--k->sp];
    int len, nb, j, a;
    k->splitters++;
    k->on_stack[s] = 0;
    len = k->cell_len[s];
    nb = 0;
    for (j = s; j < s + len; j++) {
      int v = elements[j];
      for (a = k->in_off[v]; a < k->in_off[v + 1]; a++)
        k->arcbuf[nb++] = (int64_t)k->in_col[a] * n + k->in_src[a];
    }
    process_buffer(k, nb);
    nb = 0;
    for (j = s; j < s + len; j++) {
      int v = elements[j];
      for (a = k->out_off[v]; a < k->out_off[v + 1]; a++)
        k->arcbuf[nb++] = (int64_t)k->out_col[a] * n + k->out_dst[a];
    }
    process_buffer(k, nb);
  }
  /* emit dense invariant cell ids, left to right */
  idx = -1;
  i = 0;
  while (i < n) {
    int len, j;
    idx++;
    len = k->cell_len[i];
    for (j = i; j < i + len; j++) p_out[elements[j]] = idx;
    i += len;
  }
  k->fixpoints++;
  if (k->cells_len == k->cells_cap) {
    int cap = k->cells_cap ? 2 * k->cells_cap : 256;
    int *nb2 = realloc(k->cells_obs, (size_t)cap * sizeof(int));
    if (!nb2) { k->oom = 1; return; }
    k->cells_obs = nb2;
    k->cells_cap = cap;
  }
  k->cells_obs[k->cells_len++] = idx + 1;
}

/* dense ranks of int keys, ascending (port of rank_dense) */
static void rank_dense(K *k, const int *keys, int *out, int *scratch)
{
  int n = k->n, kk = 0, i, u;
  memcpy(scratch, keys, (size_t)n * sizeof(int));
  sort_ints(scratch, 0, n);
  for (i = 0; i < n; i++)
    if (i == 0 || scratch[i] != scratch[kk - 1]) scratch[kk++] = scratch[i];
  for (u = 0; u < n; u++) {
    int lo = 0, hi = kk - 1, key = keys[u];
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (scratch[mid] < key) lo = mid + 1; else hi = mid;
    }
    out[u] = lo;
  }
}

/* individualize v: its own cell just before its old cellmates */
static void split_partition(int n, const int *p, int v, int *out)
{
  int c = p[v], alone = 1, u;
  for (u = 0; u < n; u++)
    if (u != v && p[u] == c) { alone = 0; break; }
  if (alone) { memcpy(out, p, (size_t)n * sizeof(int)); return; }
  for (u = 0; u < n; u++)
    out[u] = (u == v) ? c : (p[u] < c ? p[u] : p[u] + 1);
}

/* ---- search (port of canon.ml) ---- */

static int level_invariant(K *k, const int *p)
{
  int n = k->n, kk = 0, u, c;
  memset(k->sizes, 0, (size_t)(n ? n : 1) * sizeof(int));
  for (u = 0; u < n; u++) {
    c = p[u];
    k->sizes[c]++;
    if (c + 1 > kk) kk = c + 1;
  }
  k->seg[0] = kk;
  for (c = 0; c < kk; c++) k->seg[c + 1] = k->sizes[c];
  return kk + 1;
}

static void bp_push(K *k, int x)
{
  if (k->bp_len == k->bp_cap) {
    int cap = 2 * k->bp_cap;
    int *nb = realloc(k->bp, (size_t)cap * sizeof(int));
    if (!nb) { k->oom = 1; return; }
    k->bp = nb;
    k->bp_cap = cap;
  }
  k->bp[k->bp_len++] = x;
}

/* returns the child offset into the best path, or -1 to prune */
static int check_invariant(K *k, int off, int seglen)
{
  int limit, c = 0, i;
  if (off == k->bp_len) {
    for (i = 0; i < seglen; i++) bp_push(k, k->seg[i]);
    return off + seglen;
  }
  limit = k->bp_len < off + seglen ? k->bp_len : off + seglen;
  for (i = 0; off + i < limit; i++)
    if (k->seg[i] != k->bp[off + i]) {
      c = k->seg[i] < k->bp[off + i] ? -1 : 1;
      break;
    }
  if (c > 0) return -1;
  if (c == 0) return off + seglen;
  /* strictly better branch: re-anchor the record here */
  k->bp_len = off;
  for (i = 0; i < seglen; i++) bp_push(k, k->seg[i]);
  k->have_best = 0;
  return off + seglen;
}

static void leaf_cert_fill(K *k, const int *p, int64_t *out)
{
  int n = k->n, m = k->m, u, i;
  int64_t kcol = k->kcol;
  for (u = 0; u < n; u++) out[p[u]] = k->colors[u];
  for (i = 0; i < m; i++)
    out[n + i] =
        ((int64_t)p[k->asrc[i]] * n + p[k->adst[i]]) * kcol + k->acol[i];
  sort_i64(out, n, n + m);
}

static int cmp_cert(const int64_t *a, const int64_t *b, int len)
{
  int i;
  for (i = 0; i < len; i++)
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  return 0;
}

static int uf_find(int *uf, int x)
{
  int r = x;
  while (uf[r] != r) r = uf[r];
  while (uf[x] != r) { int nx = uf[x]; uf[x] = r; x = nx; }
  return r;
}

static void uf_union(int *uf, int x, int y)
{
  int rx = uf_find(uf, x), ry = uf_find(uf, y);
  if (rx != ry) {
    if (rx < ry) uf[ry] = rx; else uf[rx] = ry;
  }
}

static void try_record_autom(K *k, const int *p)
{
  int n = k->n, is_id = 1, u, v;
  int *g;
  for (v = 0; v < n; v++) k->inv_best[k->best_label[v]] = v;
  for (u = 0; u < n; u++) {
    k->phi[u] = k->inv_best[p[u]];
    if (k->phi[u] != u) is_id = 0;
  }
  if (is_id) return;
  if (k->ngens == k->gens_cap) {
    int cap = k->gens_cap ? 2 * k->gens_cap : 16;
    int **ng = realloc(k->gens, (size_t)cap * sizeof(int *));
    int **ns;
    if (!ng) { k->oom = 1; return; }
    k->gens = ng;
    ns = realloc(k->stabbuf, (size_t)cap * sizeof(int *));
    if (!ns) { k->oom = 1; return; }
    k->stabbuf = ns;
    k->gens_cap = cap;
  }
  g = xmalloc(k, (size_t)n * sizeof(int));
  if (!g) return;
  memcpy(g, k->phi, (size_t)n * sizeof(int));
  k->gens[k->ngens++] = g;
  for (u = 0; u < n; u++) uf_union(k->uf, u, k->phi[u]);
}

static int orbit_meets_tried(K *k, int depth, const int *tried, int ntried,
                             int v)
{
  int ns = 0, gi, j, head = 0, tail = 1, hit = 0, s;
  if (ntried == 0) return 0;
  for (gi = 0; gi < k->ngens; gi++) {
    int *phi = k->gens[gi];
    int ok = 1;
    for (j = 0; j < depth; j++) {
      int w = k->prefix[j];
      if (phi[w] != w) { ok = 0; break; }
    }
    if (ok) k->stabbuf[ns++] = phi;
  }
  k->stamp++;
  s = k->stamp;
  k->seen[v] = s;
  k->bfsq[0] = v;
  while (!hit && head < tail) {
    int y = k->bfsq[head++];
    int mem = 0;
    for (j = 0; j < ntried; j++)
      if (tried[j] == y) { mem = 1; break; }
    if (mem) hit = 1;
    else
      for (gi = 0; gi < ns; gi++) {
        int z = k->stabbuf[gi][y];
        if (k->seen[z] != s) {
          k->seen[z] = s;
          k->bfsq[tail++] = z;
        }
      }
  }
  return hit;
}

static void search(K *k, const int *p, int depth, int off)
{
  int seglen, off2, kk, c, tlen, nm, ntried, mi, u;
  int *members, *tried, *pbuf, *psplit, *pchild;
  if (k->budget || k->oom) return;
  k->nodes++;
  seglen = level_invariant(k, p);
  off2 = check_invariant(k, off, seglen);
  if (k->oom) return;
  if (off2 < 0) { k->prune_invariant++; return; }
  kk = k->seg[0];
  if (kk == k->n) {
    /* leaf */
    k->leaves++;
    if (k->leaves > k->max_leaves) { k->budget = 1; return; }
    leaf_cert_fill(k, p, k->cert_scratch);
    if (!k->have_best) {
      memcpy(k->best_cert, k->cert_scratch,
             (size_t)k->cert_buf_len * sizeof(int64_t));
      memcpy(k->best_label, p, (size_t)k->n * sizeof(int));
      k->have_best = 1;
    } else {
      int cmp = cmp_cert(k->cert_scratch, k->best_cert, k->cert_buf_len);
      if (cmp < 0) {
        memcpy(k->best_cert, k->cert_scratch,
               (size_t)k->cert_buf_len * sizeof(int64_t));
        memcpy(k->best_label, p, (size_t)k->n * sizeof(int));
      } else if (cmp == 0) {
        try_record_autom(k, p);
      }
    }
    return;
  }
  /* target: first non-singleton cell (sizes filled by level_invariant) */
  c = 0;
  while (k->sizes[c] < 2) c++;
  tlen = k->sizes[c];
  members = xmalloc(k, (size_t)tlen * 2 * sizeof(int));
  if (!members) return;
  tried = members + tlen;
  nm = 0;
  for (u = 0; u < k->n; u++)
    if (p[u] == c) members[nm++] = u;
  pbuf = xmalloc(k, (size_t)k->n * 2 * sizeof(int));
  if (!pbuf) { free(members); return; }
  psplit = pbuf;
  pchild = pbuf + k->n;
  ntried = 0;
  for (mi = 0; mi < nm && !k->budget && !k->oom; mi++) {
    int v = members[mi];
    if (orbit_meets_tried(k, depth, tried, ntried, v)) {
      k->prune_orbit++;
    } else {
      tried[ntried++] = v;
      split_partition(k->n, p, v, psplit);
      refine(k, psplit, pchild);
      if (k->oom) break;
      k->prefix[depth] = v;
      search(k, pchild, depth + 1, off2);
    }
  }
  free(pbuf);
  free(members);
}

/* ---- setup + entry point ---- */

static void build_csr(K *k)
{
  int n = k->n, m = k->m, i, u;
  memset(k->out_off, 0, (size_t)(n + 1) * sizeof(int));
  memset(k->in_off, 0, (size_t)(n + 1) * sizeof(int));
  for (i = 0; i < m; i++) {
    k->out_off[k->asrc[i] + 1]++;
    k->in_off[k->adst[i] + 1]++;
  }
  for (u = 0; u < n; u++) {
    k->out_off[u + 1] += k->out_off[u];
    k->in_off[u + 1] += k->in_off[u];
  }
  {
    int *opos = xmalloc(k, (size_t)(n ? n : 1) * sizeof(int));
    int *ipos = xmalloc(k, (size_t)(n ? n : 1) * sizeof(int));
    if (!opos || !ipos) { free(opos); free(ipos); return; }
    memcpy(opos, k->out_off, (size_t)n * sizeof(int));
    memcpy(ipos, k->in_off, (size_t)n * sizeof(int));
    for (i = 0; i < m; i++) {
      int s = k->asrc[i], d = k->adst[i];
      k->out_dst[opos[s]] = d;
      k->out_col[opos[s]] = k->acol[i];
      opos[s]++;
      k->in_src[ipos[d]] = s;
      k->in_col[ipos[d]] = k->acol[i];
      ipos[d]++;
    }
    free(opos);
    free(ipos);
  }
}

static void canon_compute(K *k)
{
  int n = k->n;
  int *p0, *proot, *scratch;
  build_csr(k);
  if (k->oom) return;
  p0 = xmalloc(k, (size_t)(n ? n : 1) * sizeof(int));
  proot = xmalloc(k, (size_t)(n ? n : 1) * sizeof(int));
  scratch = xmalloc(k, (size_t)(n ? n : 1) * sizeof(int));
  if (k->oom) { free(p0); free(proot); free(scratch); return; }
  rank_dense(k, k->colors, p0, scratch);
  refine(k, p0, proot);
  if (!k->oom) search(k, proot, 0, 0);
  free(p0);
  free(proot);
  free(scratch);
}

static value alloc_int_array(const int *a, int len)
{
  value v = caml_alloc(len, 0);
  int i;
  for (i = 0; i < len; i++) Field(v, i) = Val_long(a[i]);
  return v;
}

CAMLprim value qe_canon_c_run(value vcolors, value vasrc, value vadst,
                              value vacol, value vmax)
{
  CAMLparam5(vcolors, vasrc, vadst, vacol, vmax);
  CAMLlocal5(vlab, vorb, vgens, vstats, vcells);
  CAMLlocal2(vres, vtmp);
  K k;
  int n = (int)Wosize_val(vcolors);
  int m = (int)Wosize_val(vasrc);
  int i, u;
  long stats[8];

  memset(&k, 0, sizeof(k));
  k.n = n;
  k.m = m;
  k.max_leaves = Long_val(vmax);

  k.colors = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.asrc = xmalloc(&k, (size_t)(m ? m : 1) * sizeof(int));
  k.adst = xmalloc(&k, (size_t)(m ? m : 1) * sizeof(int));
  k.acol = xmalloc(&k, (size_t)(m ? m : 1) * sizeof(int));
  k.out_off = xmalloc(&k, (size_t)(n + 1) * sizeof(int));
  k.in_off = xmalloc(&k, (size_t)(n + 1) * sizeof(int));
  k.out_dst = xmalloc(&k, (size_t)(m ? m : 1) * sizeof(int));
  k.out_col = xmalloc(&k, (size_t)(m ? m : 1) * sizeof(int));
  k.in_src = xmalloc(&k, (size_t)(m ? m : 1) * sizeof(int));
  k.in_col = xmalloc(&k, (size_t)(m ? m : 1) * sizeof(int));
  k.elements = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.cell_of = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.cell_len = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.stack = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.cnt = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.touched = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.tcells = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.arcbuf = xmalloc(&k, (size_t)(m ? m : 1) * sizeof(int64_t));
  k.on_stack = xmalloc(&k, (size_t)(n ? n : 1));
  k.tmark = xmalloc(&k, (size_t)(n ? n : 1));
  k.seg = xmalloc(&k, (size_t)(n + 1) * sizeof(int));
  k.sizes = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.bp_cap = 256;
  k.bp = xmalloc(&k, (size_t)k.bp_cap * sizeof(int));
  k.cert_buf_len = n + m > 0 ? n + m : 1;
  k.best_cert = xmalloc(&k, (size_t)k.cert_buf_len * sizeof(int64_t));
  k.cert_scratch = xmalloc(&k, (size_t)k.cert_buf_len * sizeof(int64_t));
  k.best_label = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.prefix = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.uf = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.seen = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.bfsq = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.inv_best = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  k.phi = xmalloc(&k, (size_t)(n ? n : 1) * sizeof(int));
  if (k.oom) { k_free(&k); caml_raise_out_of_memory(); }

  for (u = 0; u < n; u++) k.colors[u] = (int)Long_val(Field(vcolors, u));
  for (i = 0; i < m; i++) {
    k.asrc[i] = (int)Long_val(Field(vasrc, i));
    k.adst[i] = (int)Long_val(Field(vadst, i));
    k.acol[i] = (int)Long_val(Field(vacol, i));
  }
  k.kcol = 1;
  for (i = 0; i < m; i++)
    if ((int64_t)k.acol[i] + 1 > k.kcol) k.kcol = (int64_t)k.acol[i] + 1;
  memset(k.best_cert, 0, (size_t)k.cert_buf_len * sizeof(int64_t));
  memset(k.cert_scratch, 0, (size_t)k.cert_buf_len * sizeof(int64_t));
  memset(k.best_label, 0, (size_t)(n ? n : 1) * sizeof(int));
  /* the refiner relies on the all-zeros resting state of these (the
     OCaml workspace gets it from Array.make and maintains it) */
  memset(k.cnt, 0, (size_t)(n ? n : 1) * sizeof(int));
  memset(k.on_stack, 0, (size_t)(n ? n : 1));
  memset(k.tmark, 0, (size_t)(n ? n : 1));
  for (u = 0; u < n; u++) k.uf[u] = u;
  for (u = 0; u < n; u++) k.seen[u] = -1;

  caml_enter_blocking_section();
  canon_compute(&k);
  caml_leave_blocking_section();

  if (k.oom) { k_free(&k); caml_raise_out_of_memory(); }

  stats[0] = k.leaves;
  stats[1] = k.nodes;
  stats[2] = k.prune_orbit;
  stats[3] = k.prune_invariant;
  stats[4] = k.budget;
  stats[5] = k.fixpoints;
  stats[6] = k.splitters;
  stats[7] = k.queue_hwm;

  vlab = alloc_int_array(k.best_label, n);
  {
    int *orb = k.phi; /* reuse scratch: orbits from the union-find */
    for (u = 0; u < n; u++) orb[u] = uf_find(k.uf, u);
    vorb = alloc_int_array(orb, n);
  }
  vgens = caml_alloc(k.ngens, 0);
  for (i = 0; i < k.ngens; i++) {
    vtmp = alloc_int_array(k.gens[i], n);
    Store_field(vgens, i, vtmp);
  }
  vstats = caml_alloc(8, 0);
  for (i = 0; i < 8; i++) Field(vstats, i) = Val_long(stats[i]);
  vcells = alloc_int_array(k.cells_obs, k.cells_len);

  k_free(&k);

  vres = caml_alloc_tuple(5);
  Store_field(vres, 0, vlab);
  Store_field(vres, 1, vorb);
  Store_field(vres, 2, vgens);
  Store_field(vres, 3, vstats);
  Store_field(vres, 4, vcells);
  CAMLreturn(vres);
}
