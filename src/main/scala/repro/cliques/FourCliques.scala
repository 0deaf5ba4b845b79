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

    /** Pr(E_i) of triangle `tid` inside clique `c` (must be a member). */
    def prE(c: Int, tid: Int): Double = {
      var i = 4 * c
      while (i < 4 * c + 4) { if (cliqueTris(i) == tid) return cliquePrE(i); i += 1 }
      throw new NoSuchElementException(s"triangle $tid not in clique $c")
    }

    /** The cliques whose four member triangles all satisfy `p`. */
    def cliquesWhere(p: Int => Boolean): Array[Boolean] = {
      val out = new Array[Boolean](nCliques)
      var c = 0
      while (c < nCliques) {
        out(c) = p(cliqueTris(4 * c)) && p(cliqueTris(4 * c + 1)) && p(cliqueTris(4 * c + 2)) && p(cliqueTris(4 * c + 3))
        c += 1
      }
      out
    }

    /** 4-clique support (number of 4-cliques containing each triangle). */
    def support(tid: Int): Int = triCliques(tid).length
  }

  /** Largest clique count the flat 4-per-clique `Int` index can hold. */
  val MaxCliques: Int = Int.MaxValue / 4

  /** Build the incidence structure for g. */
  def build(g: ProbGraph): CliqueStructure = {
    val tris  = Triangles.enumerate(g)
    val index = new Triangles.Index(g, tris)
    // 4 entries per clique, grown by doubling; the length stays a multiple of 4
    var ct = new Array[Int](64)
    var ce = new Array[Double](64)
    var len = 0
    val triDeg = new Array[Int](tris.size)
    var t = 0
    while (t < tris.size) {
      val u = tris.u(t); val v = tris.v(t); val w = tris.w(t)
      // the base edges' slots find the clique's other triangles and give their probabilities
      val uv = g.slot(u, v); val uw = g.slot(u, w); val vw = g.slot(v, w)
      val puv = g.adjProb(uv); val puw = g.adjProb(uw); val pvw = g.adjProb(vw)
      // 3-way sorted intersection of adj(u), adj(v), adj(w) above w: each
      // 4-clique {u,v,w,x} with u<v<w<x is found exactly once, from its
      // lexicographically-least triangle. Rows u and v hold w at slots uw
      // and vw; w's own row starts above w at its insertion point.
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
          // Pr(E_i) of each member = product of the 3 edges to its apex
          ct(len)     = t;     ce(len)     = pux * pvx * pwx // apex x
          ct(len + 1) = t_uvx; ce(len + 1) = puw * pvw * pwx // apex w
          ct(len + 2) = t_uwx; ce(len + 2) = puv * pvw * pvx // apex v
          ct(len + 3) = t_vwx; ce(len + 3) = puv * puw * pux // apex u
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
