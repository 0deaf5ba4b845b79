package repro.cliques

import repro.graph.ProbGraph

/** Triangle enumeration: forward listing over the CSR adjacency with vertex
  * marks (u < v < w, once each).
  */
object Triangles {

  /** Flat triangle list for a graph: parallel arrays (u, v, w, prob) with
    * u < v < w and prob = p(u,v)·p(u,w)·p(v,w) (the triangle's own
    * existence probability Pr(Δ)), and `slots`, 3 per triangle: the CSR
    * slots of (u,v) in row u, (u,w) in row u and (v,w) in row v.
    */
  final case class TriangleList(u: Array[Int], v: Array[Int], w: Array[Int], prob: Array[Double], slots: Array[Int]) {
    def size: Int = u.length
  }

  /** Largest triangle count the flat 3-per-triangle `slots` array can hold. */
  val MaxTriangles: Int = Int.MaxValue / 3

  /** Enumerate all triangles of g, each exactly once with u < v < w, in
    * lexicographic order. For each u, its neighbours x above u are marked
    * with their slot in row u; each v above u then scans only its own
    * neighbours above v, and a marked x is the triangle (u, v, x). A mark is
    * a slot of row u, so marks left by earlier vertices (slots of earlier
    * rows) never pass for u's and are never cleared.
    */
  def enumerate(g: ProbGraph): TriangleList = {
    val up   = upperStarts(g)
    val slot = Array.fill(g.n)(-1) // x's slot in the row of the last u that marked it
    var tu = new Array[Int](64); var tv = new Array[Int](64)
    var tw = new Array[Int](64); var tp = new Array[Double](64)
    var ts = new Array[Int](3 * 64)
    var len = 0
    var u = 0
    while (u < g.n) {
      val lo = up(u); val hi = g.offsets(u + 1)
      mark(g, slot, lo, u)
      var i = lo
      while (i < hi) {
        val v = g.adj(i); val puv = g.adjProb(i)
        var j = up(v); val jEnd = g.offsets(v + 1)
        while (j < jEnd) {
          val x = g.adj(j); val ux = slot(x)
          if (ux >= lo) {
            if (len == tu.length) {
              val cap = grownCapacity(len, MaxTriangles, s"triangles (3 slots each, at most $MaxTriangles)")
              tu = java.util.Arrays.copyOf(tu, cap); tv = java.util.Arrays.copyOf(tv, cap)
              tw = java.util.Arrays.copyOf(tw, cap); tp = java.util.Arrays.copyOf(tp, cap)
              ts = java.util.Arrays.copyOf(ts, 3 * cap)
            }
            tu(len) = u; tv(len) = v; tw(len) = x
            tp(len) = puv * g.adjProb(ux) * g.adjProb(j)
            ts(3 * len) = i; ts(3 * len + 1) = ux; ts(3 * len + 2) = j
            len += 1
          }
          j += 1
        }
        i += 1
      }
      u += 1
    }
    TriangleList(java.util.Arrays.copyOf(tu, len), java.util.Arrays.copyOf(tv, len),
                 java.util.Arrays.copyOf(tw, len), java.util.Arrays.copyOf(tp, len),
                 java.util.Arrays.copyOf(ts, 3 * len))
  }

  /** Marks each neighbour x of `v` from row slot `from` on with its slot. */
  private[cliques] def mark(g: ProbGraph, slot: Array[Int], from: Int, v: Int): Unit = {
    var i = from
    while (i < g.offsets(v + 1)) { slot(g.adj(i)) = i; i += 1 }
  }

  /** Per vertex v, the first slot of row v whose neighbour is above v. */
  private[cliques] def upperStarts(g: ProbGraph): Array[Int] = {
    val up = new Array[Int](g.n)
    var v = 0
    while (v < g.n) { up(v) = -1 - java.util.Arrays.binarySearch(g.adj, g.offsets(v), g.offsets(v + 1), v); v += 1 }
    up
  }

  /** The capacity a full flat array of `len` entries doubles to, at most
    * `max`; fails loudly once `max` entries are full instead of wrapping.
    */
  private[cliques] def grownCapacity(len: Int, max: Int, what: String): Int = {
    require(len < max, s"$what: more than $max entries overflow a flat Int-indexed array")
    math.min(2L * len, max.toLong).toInt
  }

  /** Flat, 3 per triangle: the indices in `g.edges` of its edges (u,v), (u,w), (v,w). */
  def edgeIds(g: ProbGraph, tris: TriangleList): Array[Int] = {
    val ids = g.edgeIds
    tris.slots.map(ids(_))
  }

  /** Triangle ids through their lowest edge: [[enumerate]] lists triangles in
    * lexicographic order, so the triangles (u, v, ·) are one block per CSR
    * slot of (u, v), sorted by w. Build it where the lookups happen and drop
    * it after; it holds an `Int` per CSR slot.
    */
  final class Index(g: ProbGraph, tris: TriangleList) {
    private val start = new Array[Int](g.adj.length + 1) // slot s: positions start(s) until start(s + 1)
    locally {
      // in lexicographic order the slots of the (u, v) edges never go down
      var t = 0
      while (t < tris.size) {
        val s = tris.slots(3 * t)
        // a test, not `require`: its message thunk would be allocated per triangle
        if (t > 0 && s < tris.slots(3 * t - 3)) throw new IllegalArgumentException(s"triangle $t is out of lexicographic order")
        start(s + 1) += 1; t += 1
      }
      var s = 0; while (s < g.adj.length) { start(s + 1) += start(s); s += 1 }
    }

    /** Id of triangle (u, v, w) with u < v < w, where `slot` = `g.slot(u, v)`; negative if absent. */
    def at(slot: Int, w: Int): Int = java.util.Arrays.binarySearch(tris.w, start(slot), start(slot + 1), w)
  }

  def count(g: ProbGraph): Long = enumerate(g).size.toLong
}
