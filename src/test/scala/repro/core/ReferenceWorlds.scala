package repro.core

import repro.cliques.Incidence._
import scala.util.Random

/** The allocating world path g and w ran before the per-structure scratch,
  * kept as the reference it is compared against: every world is a fresh
  * mask drawn from `scala.util.Random`, and every check allocates its own
  * alive, clique, support and coverage arrays. `isKNucleus` builds a
  * union-find per world and tests connectivity with the other conditions.
  * It is otherwise unchanged.
  */
object ReferenceWorlds {

  /** The edges of g's level-k candidates as `GlobalNucleus.validate` spans
    * them, each with the triangle it was grown from.
    */
  def gCandidateEdges(local: LocalNucleus.Decomposition, k: Int): Seq[(Int, Array[(Int, Int, Double)])] =
    GlobalNucleus.candidates(local, k).map { case (t, candTris) =>
      (t, LocalNucleus.span(local.graph, local.structure.tris, candTris)()._2)
    }

  /** One world of `edges` as a fresh mask over their order. */
  def sampleMask(edges: Array[(Int, Int, Double)], rnd: Random): Array[Boolean] =
    edges.map { case (_, _, p) => rnd.nextDouble() < p }

  /** The triangles of the world `mask`. */
  def aliveTriangles(ws: DetNucleus.WorldStructure, mask: Array[Boolean]): Array[Boolean] = {
    val cs  = ws.cs
    val out = new Array[Boolean](cs.nTriangles)
    var t = 0
    while (t < cs.nTriangles) { out(t) = mask(ws.triEdges(3 * t)) && mask(ws.triEdges(3 * t + 1)) && mask(ws.triEdges(3 * t + 2)); t += 1 }
    out
  }

  /** Definition 3 on the world `mask` of `ws`. */
  def isKNucleus(ws: DetNucleus.WorldStructure, mask: Array[Boolean], k: Int): Boolean = {
    val cs     = ws.cs
    val alive  = aliveTriangles(ws, mask)
    val clique = cs.cliquesWhere(alive(_))
    val support = new Array[Int](cs.nTriangles)
    val covered = new Array[Boolean](mask.length)
    val uf      = new UnionFind(cs.nTriangles)
    var i = 0
    while (i < cs.cliqueTris.length) {
      if (clique(i / 4)) {
        val t = cs.cliqueTris(i)
        support(t) += 1
        covered(ws.triEdges(3 * t)) = true; covered(ws.triEdges(3 * t + 1)) = true; covered(ws.triEdges(3 * t + 2)) = true
        uf.union(t, cs.cliqueTris(i - i % 4))
      }
      i += 1
    }
    val inClique = (0 until cs.nTriangles).filter(support(_) > 0)
    inClique.nonEmpty && mask.indices.forall(e => !mask(e) || covered(e)) &&
      alive.indices.forall(t => !alive(t) || support(t) >= k) &&
      inClique.forall(uf.find(_) == uf.find(inClique.head))
  }

  /** The triangles of the world `mask` with ν_det ≥ k, by level-k pruning. */
  def levelSet(ws: DetNucleus.WorldStructure, mask: Array[Boolean], k: Int): Array[Boolean] = {
    val cs      = ws.cs
    val alive   = aliveTriangles(ws, mask)
    val clique  = cs.cliquesWhere(alive(_))
    val support = new Array[Int](cs.nTriangles)
    var i = 0
    while (i < cs.cliqueTris.length) { if (clique(i / 4)) support(cs.cliqueTris(i)) += 1; i += 1 }
    // each triangle is pushed once: initially below k, or on falling to k − 1
    val stack = new Array[Int](cs.nTriangles)
    var top = 0
    var t = 0
    while (t < cs.nTriangles) { if (alive(t) && support(t) < k) { stack(top) = t; top += 1 }; t += 1 }
    while (top > 0) {
      top -= 1
      val dead = stack(top)
      alive(dead) = false
      cs.triCliques(dead).foreach { c =>
        if (clique(c)) {
          clique(c) = false
          var j = 4 * c
          while (j < 4 * c + 4) {
            val m = cs.cliqueTris(j)
            support(m) -= 1
            if (alive(m) && support(m) == k - 1) { stack(top) = m; top += 1 }
            j += 1
          }
        }
      }
    }
    alive
  }

  /** How many of n worlds of `ws`, drawn from `new Random(seed)`, credit each triangle. */
  def worldCounts(ws: DetNucleus.WorldStructure, nSamples: Int, seed: Long)
                 (credited: Array[Boolean] => Array[Boolean]): Array[Int] = {
    val counts = new Array[Int](ws.cs.nTriangles)
    val rnd    = new Random(seed)
    val edges  = ws.graph.edges
    var s = 0
    while (s < nSamples) {
      val hit = credited(sampleMask(edges, rnd))
      var t = 0
      while (t < counts.length) { if (hit(t)) counts(t) += 1; t += 1 }
      s += 1
    }
    counts
  }

  /** g's counts: a world that is a k-nucleus credits its alive triangles. */
  def globalCounts(ws: DetNucleus.WorldStructure, k: Int, nSamples: Int, seed: Long): Array[Int] = {
    val none = new Array[Boolean](ws.cs.nTriangles)
    worldCounts(ws, nSamples, seed)(mask => if (isKNucleus(ws, mask, k)) aliveTriangles(ws, mask) else none)
  }

  /** w's counts: a world credits its level-k survivors. */
  def weaklyCounts(ws: DetNucleus.WorldStructure, k: Int, nSamples: Int, seed: Long): Array[Int] =
    worldCounts(ws, nSamples, seed)(levelSet(ws, _, k))
}
