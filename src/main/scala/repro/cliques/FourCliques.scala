package repro.cliques

import repro.graph.ProbGraph

/** 4-clique enumeration and the triangle↔4-clique incidence structure.
  *
  * [[CliqueStructure]] is the in-memory substrate for all the peeling
  * algorithms: for every triangle Δ its member 4-cliques, and for every
  * (4-clique S, member triangle Δ) the probability Pr(E_i) of the three
  * edges joining S's apex (the vertex of S not in Δ) to Δ — exactly the
  * Bernoulli indicators of Section 5.1.
  */
object FourCliques {

  /** Triangle/4-clique incidence for one graph.
    *
    * @param tris        canonical triangle list (u < v < w)
    * @param cliqueTris  flat array, 4 triangle ids per clique
    * @param cliquePrE   flat array, Pr(E_i) for the corresponding member
    * @param triCliques  per-triangle list of incident clique ids
    */
  final class CliqueStructure(
      val tris: Triangles.TriangleList,
      val cliqueTris: Array[Int],
      val cliquePrE: Array[Double],
      val triCliques: Array[Array[Int]]
  ) {
    def nTriangles: Int = tris.size
    def nCliques: Int   = cliqueTris.length / 4

    /** Member triangle ids of clique c. */
    def members(c: Int): Array[Int] =
      java.util.Arrays.copyOfRange(cliqueTris, 4 * c, 4 * c + 4)
  }

  /** Largest clique count the flat 4-per-clique `Int` index can hold. */
  val MaxCliques: Int = Int.MaxValue / 4

  /** Fails loudly when `count` 4-cliques exceed [[MaxCliques]]. */
  private[cliques] def requireCliques(count: Long): Unit = require(count <= MaxCliques, s"$count 4-cliques exceed $MaxCliques")

  /** Build the incidence structure for g. Each 4-clique {u,v,w,x} with
    * u<v<w<x is found once, from its least triangle (u, v, w), in
    * lexicographic order. The triangles (u, v, ·) are one block of the
    * listing; for each block, marks give every vertex x above v its slot in
    * rows u and v and, for x in the block, the id of (u, v, x). A triangle
    * (u, v, w) then scans w's neighbours above w, and an x whose block id is
    * above (u, v, w)'s closes a clique; the slots of (u, v), (u, w) and
    * (v, w) are the listing's own. Block ids only grow within a sweep, so
    * marks left by earlier blocks never pass and are never cleared. The
    * sweep runs twice: once to count the cliques, then to fill arrays of
    * exactly 4 entries per clique. Each sweep resets `block`, since the
    * first one's marks carry ids that would pass in the second.
    */
  def build(g: ProbGraph): CliqueStructure = {
    val tris  = Triangles.enumerate(g)
    val index = new Triangles.Index(g, tris)
    val up    = Triangles.upperStarts(g)
    val uSlot = new Array[Int](g.n)     // x's slot in row u, for x above u
    val vSlot = new Array[Int](g.n)     // x's slot in row v, for x above v
    val block = new Array[Int](g.n)     // id of triangle (u, v, x), for x in the block
    val triDeg = new Array[Int](tris.size)
    /** One sweep; the cliques are only counted unless `fill`, which writes them into the arrays. */
    def sweep(fill: Boolean, cliqueTris: Array[Int], cliquePrE: Array[Double]): Long = {
      java.util.Arrays.fill(block, -1)
      var count  = 0L
      var marked = -1 // the u whose row uSlot holds
      var t = 0
      while (t < tris.size) {
        val u = tris.u(t); val v = tris.v(t)
        var end = t + 1
        while (end < tris.size && tris.v(end) == v && tris.u(end) == u) end += 1
        if (end - t < 2) t = end // a clique needs two triangles (u, v, ·)
        else {
          if (fill && marked != u) { Triangles.mark(g, uSlot, up(u), u); marked = u }
          if (fill) Triangles.mark(g, vSlot, up(v), v) // the slot marks serve only the Pr(E) products
          var b = t
          while (b < end) { block(tris.w(b)) = b; b += 1 }
          val puv = g.adjProb(tris.slots(3 * t))
          while (t < end) {
            val w  = tris.w(t)
            val uw = tris.slots(3 * t + 1); val vw = tris.slots(3 * t + 2)
            val puw = g.adjProb(uw); val pvw = g.adjProb(vw)
            var c = up(w); val cE = g.offsets(w + 1)
            while (c < cE) {
              val x = g.adj(c); val t_uvx = block(x)
              if (t_uvx > t) {
                if (fill) {
                  val at  = 4 * count.toInt
                  val pux = g.adjProb(uSlot(x)); val pvx = g.adjProb(vSlot(x)); val pwx = g.adjProb(c)
                  val t_uwx = index.at(uw, x)
                  val t_vwx = index.at(vw, x)
                  // Pr(E_i) of each member = product of the 3 edges to its apex
                  cliqueTris(at)     = t;     cliquePrE(at)     = pux * pvx * pwx // apex x
                  cliqueTris(at + 1) = t_uvx; cliquePrE(at + 1) = puw * pvw * pwx // apex w
                  cliqueTris(at + 2) = t_uwx; cliquePrE(at + 2) = puv * pvw * pvx // apex v
                  cliqueTris(at + 3) = t_vwx; cliquePrE(at + 3) = puv * puw * pux // apex u
                  triDeg(t) += 1; triDeg(t_uvx) += 1
                  triDeg(t_uwx) += 1; triDeg(t_vwx) += 1
                }
                count += 1
              }
              c += 1
            }
            t += 1
          }
        }
      }
      count
    }
    val count = sweep(fill = false, null, null)
    requireCliques(count)
    val cliqueTris = new Array[Int](4 * count.toInt)
    val cliquePrE  = new Array[Double](4 * count.toInt)
    sweep(fill = true, cliqueTris, cliquePrE)
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
