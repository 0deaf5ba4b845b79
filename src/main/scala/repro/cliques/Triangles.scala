package repro.cliques

import repro.graph.ProbGraph

/** Triangle enumeration: merge-intersections over the CSR adjacency
  * (u < v < w, once each).
  */
object Triangles {

  /** Flat triangle list for a graph: parallel arrays (u, v, w, prob) with
    * u < v < w and prob = p(u,v)·p(u,w)·p(v,w) (the triangle's own
    * existence probability Pr(Δ)).
    */
  final case class TriangleList(u: Array[Int], v: Array[Int], w: Array[Int], prob: Array[Double]) {
    def size: Int = u.length
  }

  /** Enumerate all triangles of g, each exactly once with u < v < w. */
  def enumerate(g: ProbGraph): TriangleList = {
    val bu = Array.newBuilder[Int]; val bv = Array.newBuilder[Int]
    val bw = Array.newBuilder[Int]; val bp = Array.newBuilder[Double]
    var u = 0
    while (u < g.n) {
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) {
        val v = g.adj(i)
        if (u < v) {
          val puv = g.adjProb(i)
          // intersect adj(u) and adj(v), keeping w > v
          var a = g.offsets(u); var b = g.offsets(v)
          val aEnd = g.offsets(u + 1); val bEnd = g.offsets(v + 1)
          while (a < aEnd && b < bEnd) {
            val x = g.adj(a); val y = g.adj(b)
            if (x == y) {
              if (x > v) {
                bu += u; bv += v; bw += x
                bp += puv * g.adjProb(a) * g.adjProb(b)
              }
              a += 1; b += 1
            } else if (x < y) a += 1
            else b += 1
          }
        }
        i += 1
      }
      u += 1
    }
    TriangleList(bu.result(), bv.result(), bw.result(), bp.result())
  }

  /** Flat, 3 per triangle: the indices in `g.edges` of its edges (u,v), (u,w), (v,w). */
  def edgeIds(g: ProbGraph, tris: TriangleList): Array[Int] = {
    val ids = g.edgeIds
    val out = new Array[Int](3 * tris.size)
    for (t <- 0 until tris.size) {
      out(3 * t)     = ids(g.slot(tris.u(t), tris.v(t)))
      out(3 * t + 1) = ids(g.slot(tris.u(t), tris.w(t)))
      out(3 * t + 2) = ids(g.slot(tris.v(t), tris.w(t)))
    }
    out
  }

  /** Triangle ids through their lowest edge: [[enumerate]] lists triangles in
    * lexicographic order, so the triangles (u, v, ·) are one block per CSR
    * slot of (u, v), sorted by w. Build it where the lookups happen and drop
    * it after; it holds an `Int` per CSR slot.
    */
  final class Index(g: ProbGraph, tris: TriangleList) {
    private val start = new Array[Int](g.adj.length + 1) // slot s: positions start(s) until start(s + 1)
    for (t <- 0 until tris.size) start(g.slot(tris.u(t), tris.v(t)) + 1) += 1
    for (s <- 0 until g.adj.length) start(s + 1) += start(s)

    /** Id of triangle (u, v, w) with u < v < w, where `slot` = `g.slot(u, v)`; negative if absent. */
    def at(slot: Int, w: Int): Int = java.util.Arrays.binarySearch(tris.w, start(slot), start(slot + 1), w)
  }

  def count(g: ProbGraph): Long = enumerate(g).size.toLong
}
