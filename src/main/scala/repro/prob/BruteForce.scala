package repro.prob

import repro.core.DetNucleus
import repro.graph.ProbGraph

/** Exact probabilities by full possible-world enumeration (2^m worlds) —
  * the ground-truth oracle for every probabilistic quantity in the paper on
  * graphs small enough to enumerate (m ≤ 24, enforced). Each world is
  * rebuilt as a graph, independently of the mask path g and w use.
  */
object BruteForce {

  /** Iterate every possible world with its probability. */
  private def worlds(g: ProbGraph): Iterator[(ProbGraph, Double)] = {
    val edges = g.edges
    val m     = edges.length
    require(m <= 24, s"brute force limited to 24 edges, got $m")
    (0L until (1L << m)).iterator.map { bits =>
      var pr = 1.0
      val mask = new Array[Boolean](m)
      var i = 0
      while (i < m) {
        val present = ((bits >> i) & 1L) == 1L
        mask(i) = present
        pr *= (if (present) edges(i)._3 else 1.0 - edges(i)._3)
        i += 1
      }
      (Sampler.worldGraph(g, edges, mask), pr)
    }
  }

  /** Dense ids in the world of labels a, b, c (negative where absent). */
  private def ids(world: ProbGraph, a: Long, b: Long, c: Long): Array[Int] =
    Array(a, b, c).map(java.util.Arrays.binarySearch(world.labels, _))

  /** Does the world (by original labels) contain triangle (a,b,c)? */
  private def hasTriangle(world: ProbGraph, a: Long, b: Long, c: Long): Boolean = {
    val Array(ia, ib, ic) = ids(world, a, b, c)
    ia >= 0 && ib >= 0 && ic >= 0 &&
      world.hasEdge(ia, ib) && world.hasEdge(ia, ic) && world.hasEdge(ib, ic)
  }

  /** 4-clique support of triangle (a,b,c), which is in the world (labels). */
  private def supportIn(world: ProbGraph, a: Long, b: Long, c: Long): Int = {
    val Array(ia, ib, ic) = ids(world, a, b, c)
    (0 until world.n).count(x => x != ia && x != ib && x != ic &&
      world.hasEdge(x, ia) && world.hasEdge(x, ib) && world.hasEdge(x, ic))
  }

  /** Exact Pr(X_{G,Δ,ℓ} ≥ k) for triangle Δ = (a,b,c) given by labels. */
  def localTail(g: ProbGraph, a: Long, b: Long, c: Long, k: Int): Double =
    worlds(g).collect {
      case (w, pr) if hasTriangle(w, a, b, c) && supportIn(w, a, b, c) >= k => pr
    }.sum

  /** Exact Pr(X_{G,Δ,g} ≥ k): world contains Δ and is a deterministic
    * k-nucleus (Definition 4, μ = g).
    */
  def globalTail(g: ProbGraph, a: Long, b: Long, c: Long, k: Int): Double =
    worlds(g).collect {
      case (w, pr) if hasTriangle(w, a, b, c) && DetNucleus.isKNucleus(w, k) => pr
    }.sum

  /** Exact Pr(X_{G,Δ,w} ≥ k): world contains Δ and Δ lies in some
    * deterministic k-nucleus of the world ⇔ ν_det(Δ) ≥ k in the world
    * (Definition 4, μ = w). For k=0 an isolated triangle is its own
    * 0-nucleus only if it lies in a 4-clique (cliqueness); ν_det covers
    * this: triangles in no 4-clique get ν_det = 0 but are excluded for the
    * union-of-4-cliques requirement when k ≥ 1.
    */
  def weaklyGlobalTail(g: ProbGraph, a: Long, b: Long, c: Long, k: Int): Double =
    worlds(g).collect {
      case (w, pr) if hasTriangle(w, a, b, c) && detNu(w, a, b, c) >= k => pr
    }.sum

  private def detNu(world: ProbGraph, a: Long, b: Long, c: Long): Int = {
    val (cs, nu) = DetNucleus.decompose(world)
    val Array(ia, ib, ic) = ids(world, a, b, c).sorted
    (0 until cs.nTriangles).find(t => cs.tris.u(t) == ia && cs.tris.v(t) == ib && cs.tris.w(t) == ic)
      .fold(-1)(nu(_))
  }
}
