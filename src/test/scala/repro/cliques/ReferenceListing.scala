package repro.cliques

import repro.cliques.FourCliques.{CliqueStructure, MaxCliques}
import repro.cliques.Triangles.TriangleList
import repro.graph.ProbGraph

/** The merge-based triangle and 4-clique listings the forward, mark-based
  * ones replaced, kept as the reference they are compared against array for
  * array. `enumerate` merges rows u and v from their first entries and drops
  * every x ≤ v, and finds each triangle's slots with `g.slot`; `build` does a 3-way merge of rows u, v and w above w and
  * finds each clique's other triangles by binary search.
  */
object ReferenceListing {

  def enumerate(g: ProbGraph): TriangleList = {
    val bu = Array.newBuilder[Int]; val bv = Array.newBuilder[Int]
    val bw = Array.newBuilder[Int]; val bp = Array.newBuilder[Double]
    val bs = Array.newBuilder[Int]
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
                bs += g.slot(u, v) += g.slot(u, x) += g.slot(v, x)
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
    TriangleList(bu.result(), bv.result(), bw.result(), bp.result(), bs.result())
  }

  /** Id of triangle (u, v, w), u < v < w, through the CSR slot of (u, v). */
  private final class Index(g: ProbGraph, tris: TriangleList) {
    private val start = new Array[Int](g.adj.length + 1)
    for (t <- 0 until tris.size) start(g.slot(tris.u(t), tris.v(t)) + 1) += 1
    for (s <- 0 until g.adj.length) start(s + 1) += start(s)

    def at(slot: Int, w: Int): Int = java.util.Arrays.binarySearch(tris.w, start(slot), start(slot + 1), w)
  }

  def build(g: ProbGraph): CliqueStructure = {
    val tris  = enumerate(g)
    val index = new Index(g, tris)
    var ct = new Array[Int](64)
    var ce = new Array[Double](64)
    var len = 0
    val triDeg = new Array[Int](tris.size)
    var t = 0
    while (t < tris.size) {
      val u = tris.u(t); val v = tris.v(t); val w = tris.w(t)
      val uv = g.slot(u, v); val uw = g.slot(u, w); val vw = g.slot(v, w)
      val puv = g.adjProb(uv); val puw = g.adjProb(uw); val pvw = g.adjProb(vw)
      var a = uw + 1; var b = vw + 1
      var c = -1 - java.util.Arrays.binarySearch(g.adj, g.offsets(w), g.offsets(w + 1), w)
      val aE = g.offsets(u + 1); val bE = g.offsets(v + 1); val cE = g.offsets(w + 1)
      while (a < aE && b < bE && c < cE) {
        val x = g.adj(a); val y = g.adj(b); val z = g.adj(c)
        if (x == y && y == z) {
          require(len / 4 < MaxCliques, s"more than $MaxCliques 4-cliques overflow the flat clique index")
          if (len == ct.length) {
            val grown = math.min(2L * len, 4L * MaxCliques).toInt
            ct = java.util.Arrays.copyOf(ct, grown); ce = java.util.Arrays.copyOf(ce, grown)
          }
          val pux = g.adjProb(a); val pvx = g.adjProb(b); val pwx = g.adjProb(c)
          val t_uvx = index.at(uv, x)
          val t_uwx = index.at(uw, x)
          val t_vwx = index.at(vw, x)
          ct(len)     = t;     ce(len)     = pux * pvx * pwx
          ct(len + 1) = t_uvx; ce(len + 1) = puw * pvw * pwx
          ct(len + 2) = t_uwx; ce(len + 2) = puv * pvw * pvx
          ct(len + 3) = t_vwx; ce(len + 3) = puv * puw * pux
          triDeg(t) += 1; triDeg(t_uvx) += 1
          triDeg(t_uwx) += 1; triDeg(t_vwx) += 1
          len += 4
          a += 1; b += 1; c += 1
        } else {
          val m = math.max(x, math.max(y, z))
          if (x < m) a += 1
          if (y < m) b += 1
          if (z < m) c += 1
        }
      }
      t += 1
    }
    val cliqueTris = java.util.Arrays.copyOf(ct, len)
    val cliquePrE  = java.util.Arrays.copyOf(ce, len)
    val triCliques = new Array[Array[Int]](tris.size)
    var i = 0
    while (i < tris.size) { triCliques(i) = new Array[Int](triDeg(i)); triDeg(i) = 0; i += 1 }
    i = 0
    while (i < cliqueTris.length) {
      val tid = cliqueTris(i)
      triCliques(tid)(triDeg(tid)) = i / 4
      triDeg(tid) += 1
      i += 1
    }
    new CliqueStructure(tris, cliqueTris, cliquePrE, triCliques)
  }
}
