package repro.core

import repro.cliques.{FourCliques, Triangles}
import repro.graph.ProbGraph
import repro.prob.Sampler
import scala.util.Random

/** The allocating world path g and w ran before the per-structure scratch,
  * kept as the reference it is compared against: every world is a fresh
  * mask drawn from `scala.util.Random`, and every check allocates its own
  * alive, clique, support and coverage arrays. `isKNucleus` builds a
  * union-find per world and tests connectivity with the other conditions.
  * It is otherwise unchanged. So is [[rebuild]], the structure g and w
  * built per candidate before restriction: the candidate's own graph,
  * listed from scratch.
  */
object ReferenceWorlds {

  /** The edges of g's level-k candidates, spanned in the ℓ graph, each with
    * the triangle it was grown from.
    */
  def gCandidateEdges(local: LocalNucleus.Decomposition, k: Int): Seq[(Int, Array[(Int, Int, Double)])] =
    GlobalNucleus.candidates(local, k).map { case (t, candTris) =>
      (t, LocalNucleus.span(local.graph, local.structure.tris, candTris)()._2)
    }

  /** A level-k candidate of g ("g", seed offset: the triangle it was grown
    * from) or of w ("w", seed offset: its index), with its triangles and the
    * upper CSR slots of their edges, from which g and w build its structure.
    */
  final case class Candidate(kind: String, offset: Int, tris: Array[Int], slots: Array[Int])

  /** g's and w's level-k candidates, as `GlobalNucleus` and `WeaklyGlobalNucleus` make them. */
  def candidates(local: LocalNucleus.Decomposition, k: Int, restrict: DetNucleus.Restrict): Seq[Candidate] =
    GlobalNucleus.candidates(local, k).map { case (t, tris) => Candidate("g", t, tris, restrict.slotsOf(tris)) } ++
      LocalNucleus.components(local, k, k).flatMap(_._2).zipWithIndex.map { case (tris, ci) =>
        Candidate("w", ci, tris, restrict.slotsOf(tris))
      }

  /** The structure of the whole graph `h`, rebuilt: its own triangle and
    * 4-clique listing and its `edges` order, its triangles numbered 0, 1, …
    * as listed. Also returns the listing, for the triangles' vertices.
    */
  def rebuild(h: ProbGraph): (FourCliques.CliqueStructure, DetNucleus.WorldStructure) = {
    val cs = FourCliques.build(h)
    (cs, new DetNucleus.WorldStructure(h.edgeProbs.map(Sampler.threshold), Triangles.edgeIds(h, cs.tris),
                                       cs.cliqueTris, cs.triCliques, Array.range(0, cs.nTriangles)))
  }

  /** One world of edges with probabilities `probs` as a fresh mask over their order. */
  def sampleMask(probs: Array[Double], rnd: Random): Array[Boolean] =
    probs.map(rnd.nextDouble() < _)

  /** The cliques of `ws` whose four member triangles are all `alive`. */
  private def cliquesWhere(ws: DetNucleus.WorldStructure, alive: Array[Boolean]): Array[Boolean] =
    Array.tabulate(ws.nCliques)(c => (4 * c until 4 * c + 4).forall(i => alive(ws.cliqueTris(i))))

  /** The triangles of the world `mask`. */
  def aliveTriangles(ws: DetNucleus.WorldStructure, mask: Array[Boolean]): Array[Boolean] = {
    val out = new Array[Boolean](ws.nTriangles)
    var t = 0
    while (t < ws.nTriangles) { out(t) = mask(ws.triEdges(3 * t)) && mask(ws.triEdges(3 * t + 1)) && mask(ws.triEdges(3 * t + 2)); t += 1 }
    out
  }

  /** Definition 3 on the world `mask` of `ws`. */
  def isKNucleus(ws: DetNucleus.WorldStructure, mask: Array[Boolean], k: Int): Boolean = {
    val alive  = aliveTriangles(ws, mask)
    val clique = cliquesWhere(ws, alive)
    val support = new Array[Int](ws.nTriangles)
    val covered = new Array[Boolean](mask.length)
    val uf      = new UnionFind(ws.nTriangles)
    var i = 0
    while (i < ws.cliqueTris.length) {
      if (clique(i / 4)) {
        val t = ws.cliqueTris(i)
        support(t) += 1
        covered(ws.triEdges(3 * t)) = true; covered(ws.triEdges(3 * t + 1)) = true; covered(ws.triEdges(3 * t + 2)) = true
        uf.union(t, ws.cliqueTris(i - i % 4))
      }
      i += 1
    }
    val inClique = (0 until ws.nTriangles).filter(support(_) > 0)
    inClique.nonEmpty && mask.indices.forall(e => !mask(e) || covered(e)) &&
      alive.indices.forall(t => !alive(t) || support(t) >= k) &&
      inClique.forall(uf.find(_) == uf.find(inClique.head))
  }

  /** The triangles of the world `mask` with ν_det ≥ k, by level-k pruning. */
  def levelSet(ws: DetNucleus.WorldStructure, mask: Array[Boolean], k: Int): Array[Boolean] = {
    val alive   = aliveTriangles(ws, mask)
    val clique  = cliquesWhere(ws, alive)
    val support = new Array[Int](ws.nTriangles)
    var i = 0
    while (i < ws.cliqueTris.length) { if (clique(i / 4)) support(ws.cliqueTris(i)) += 1; i += 1 }
    // each triangle is pushed once: initially below k, or on falling to k − 1
    val stack = new Array[Int](ws.nTriangles)
    var top = 0
    var t = 0
    while (t < ws.nTriangles) { if (alive(t) && support(t) < k) { stack(top) = t; top += 1 }; t += 1 }
    while (top > 0) {
      top -= 1
      val dead = stack(top)
      alive(dead) = false
      ws.triCliques(dead).foreach { c =>
        if (clique(c)) {
          clique(c) = false
          var j = 4 * c
          while (j < 4 * c + 4) {
            val m = ws.cliqueTris(j)
            support(m) -= 1
            if (alive(m) && support(m) == k - 1) { stack(top) = m; top += 1 }
            j += 1
          }
        }
      }
    }
    alive
  }

  /** How many of n worlds of `ws`, whose edges have probabilities `probs`,
    * drawn from `new Random(seed)`, credit each triangle.
    */
  def worldCounts(ws: DetNucleus.WorldStructure, probs: Array[Double], nSamples: Int, seed: Long)
                 (credited: Array[Boolean] => Array[Boolean]): Array[Int] = {
    val counts = new Array[Int](ws.nTriangles)
    val rnd    = new Random(seed)
    var s = 0
    while (s < nSamples) {
      val hit = credited(sampleMask(probs, rnd))
      var t = 0
      while (t < counts.length) { if (hit(t)) counts(t) += 1; t += 1 }
      s += 1
    }
    counts
  }

  /** g's counts: a world that is a k-nucleus credits its alive triangles. */
  def globalCounts(ws: DetNucleus.WorldStructure, probs: Array[Double], k: Int, nSamples: Int, seed: Long): Array[Int] = {
    val none = new Array[Boolean](ws.nTriangles)
    worldCounts(ws, probs, nSamples, seed)(mask => if (isKNucleus(ws, mask, k)) aliveTriangles(ws, mask) else none)
  }

  /** w's counts: a world credits its level-k survivors. */
  def weaklyCounts(ws: DetNucleus.WorldStructure, probs: Array[Double], k: Int, nSamples: Int, seed: Long): Array[Int] =
    worldCounts(ws, probs, nSamples, seed)(levelSet(ws, _, k))
}
