package repro.core

import repro.cliques.Triangles
import repro.graph.ProbGraph
import repro.prob.{Sampler, WorldRng}
import scala.collection.mutable

/** g-NuDecomp (Section 6, Algorithm 2): approximate global nucleus
  * decomposition. Candidates are grown inside the union C_k of the
  * ℓ-(k,θ)-nuclei (every g-(k,θ)-nucleus is contained in one), closed so
  * every triangle has ≥ k 4-cliques in the candidate, then validated by
  * Monte-Carlo sampling of n possible worlds against the indicator
  * 1_g(G,Δ,k): the sampled world must itself be a deterministic k-nucleus
  * containing Δ.
  *
  * g and w share one world-counting loop, [[worldCounts]], and one
  * reporter, [[nucleus]]; both build candidates with `ProbGraph.subgraph`.
  */
object GlobalNucleus {

  /** A probabilistic nucleus reported by the g/w algorithms, with original
    * vertex labels so it can be compared across graphs.
    */
  final case class ProbNucleus(
      k: Int,
      vertices: Array[Long],
      edges: Array[(Long, Long, Double)],
      /** estimated min-over-triangles tail probability (Eq. 17) */
      minTail: Double
  ) {
    def toGraph: ProbGraph = ProbGraph(scala.collection.immutable.ArraySeq.unsafeWrapArray(edges))
  }

  /** All g-(k,θ)-nuclei for k = 1..kMax of the local decomposition. */
  def decompose(local: LocalNucleus.Decomposition, nSamples: Int, seed: Long): Seq[ProbNucleus] = {
    requireSamples(nSamples)
    (1 to local.kMax).flatMap(k => decomposeAt(local, k, nSamples, seed + k))
  }

  /** Tails are success counts over n worlds: n = 0 would make them NaN. */
  private[core] def requireSamples(nSamples: Int): Unit =
    require(nSamples >= 1, s"Monte-Carlo sample size must be at least 1, got $nSamples")

  /** g-(k,θ)-nuclei at one level k. */
  def decomposeAt(local: LocalNucleus.Decomposition, k: Int,
                  nSamples: Int, seed: Long): Seq[ProbNucleus] = {
    requireSamples(nSamples)
    candidates(local, k).flatMap { case (t, candTris) => validate(local, candTris, k, nSamples, seed + t) }
  }

  /** The level-k candidates, each with the triangle `t` it was grown from
    * (its Monte-Carlo seed offset) and its triangles.
    */
  private[core] def candidates(local: LocalNucleus.Decomposition, k: Int): Seq[(Int, Array[Int])] = {
    val cs = local.structure
    // k-alive cliques of C_k: all four member triangles have ν ≥ k
    val level = local.cliqueLevels
    val aliveCliquesOf: Int => Array[Int] = t => cs.triCliques(t).filter(level(_) >= k)

    val inCandidate = new Array[Boolean](cs.nTriangles)
    val out         = mutable.ArrayBuffer.empty[(Int, Array[Int])]
    var t = 0
    while (t < cs.nTriangles) {
      if (!inCandidate(t) && local.nu(t) >= k && aliveCliquesOf(t).nonEmpty) {
        // closure: add all C_k cliques of any member triangle that has
        // fewer than k cliques inside the candidate (Algorithm 2, lines 6-8)
        val cliques  = mutable.HashSet.empty[Int]
        val triCount = mutable.HashMap.empty[Int, Int].withDefaultValue(0)
        def addCliques(tri: Int): Unit = aliveCliquesOf(tri).foreach { cl =>
          if (cliques.add(cl)) cs.members(cl).foreach(m => triCount(m) += 1)
        }
        addCliques(t)
        // repeat passes over the under-supported members until one adds nothing
        var before = -1
        while (cliques.size != before) {
          before = cliques.size
          triCount.keysIterator.filter(triCount(_) < k).toArray.foreach(addCliques)
        }
        val candTris = triCount.keysIterator.toArray
        candTris.foreach(inCandidate(_) = true)
        out += ((t, candTris))
      }
      t += 1
    }
    out.toSeq
  }

  /** Monte-Carlo validation of one candidate (Algorithm 2, lines 9-16). */
  private def validate(local: LocalNucleus.Decomposition, candTris: Array[Int], k: Int,
                       nSamples: Int, seed: Long): Option[ProbNucleus] = {
    val (g, tris) = (local.graph, local.structure.tris)
    // spanned once: the candidate graph, and the reported nucleus if accepted
    val (vs, es) = LocalNucleus.span(g, tris, candTris)()
    val ws = new DetNucleus.WorldStructure(g.subgraph(es))
    val h  = ws.graph
    // the candidate's triangles in h: both graphs number vertices in label order
    def hId(x: Int): Int = java.util.Arrays.binarySearch(h.labels, g.labels(x))
    val index = new Triangles.Index(h, ws.cs.tris)
    val hTris = candTris.map(t => index.at(h.slot(hId(tris.u(t)), hId(tris.v(t))), hId(tris.w(t))))
    val counts = globalCounts(ws, k, nSamples, seed)
    val minTail = hTris.map(counts).min.toDouble / nSamples
    if (minTail >= local.theta) Some(nucleus(g, k, vs, es, minTail)) else None
  }

  /** g's success count per triangle of `ws` over n seeded worlds (the MC
    * indicator 1_g): a world that is a k-nucleus credits all its triangles.
    */
  private[core] def globalCounts(ws: DetNucleus.WorldStructure, k: Int, nSamples: Int, seed: Long): Array[Int] = {
    val none = new Array[Boolean](ws.cs.nTriangles)
    worldCounts(ws, nSamples, seed)(mask => if (DetNucleus.isKNucleus(ws, mask, k)) ws.alive else none)
  }

  /** How many of n seeded worlds of `ws` credit each of its triangles:
    * `credited` maps a world's edge mask to its credited triangles. The one
    * [[WorldRng]] loop: every world is drawn into `ws.mask`, and `credited`
    * may return one of `ws`'s buffers.
    */
  private[core] def worldCounts(ws: DetNucleus.WorldStructure, nSamples: Int, seed: Long)
                               (credited: Array[Boolean] => Array[Boolean]): Array[Int] = {
    val counts = new Array[Int](ws.cs.nTriangles)
    val rng    = new WorldRng(seed)
    var s = 0
    while (s < nSamples) {
      val hit = credited(Sampler.sampleMask(ws.probs, rng, ws.mask))
      var t = 0
      while (t < counts.length) { if (hit(t)) counts(t) += 1; t += 1 }
      s += 1
    }
    counts
  }

  /** The nucleus with vertices `vs` and edges `es` of `g` (a [[LocalNucleus.span]]), in labels. */
  private[core] def nucleus(g: ProbGraph, k: Int, vs: Array[Int], es: Array[(Int, Int, Double)],
                            minTail: Double): ProbNucleus =
    ProbNucleus(k, vs.map(g.labels), es.map { case (u, v, p) => (g.labels(u), g.labels(v), p) }, minTail)
}
