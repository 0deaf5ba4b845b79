package repro.core

import repro.cliques.Triangles
import repro.graph.ProbGraph
import repro.prob.Sampler
import scala.collection.mutable
import scala.util.Random

/** g-NuDecomp (Section 6, Algorithm 2): approximate global nucleus
  * decomposition. Candidates are grown inside the union C_k of the
  * ℓ-(k,θ)-nuclei (every g-(k,θ)-nucleus is contained in one), closed so
  * every triangle has ≥ k 4-cliques in the candidate, then validated by
  * Monte-Carlo sampling of n possible worlds against the indicator
  * 1_g(G,Δ,k): the sampled world must itself be a deterministic k-nucleus
  * containing Δ.
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
    def toGraph: ProbGraph = ProbGraph(edges.toIndexedSeq)
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
    val cs    = local.structure
    val theta = local.theta
    // k-alive cliques of C_k: all four member triangles have ν ≥ k
    val kAlive = cs.cliquesWhere(local.nu(_) >= k)
    val aliveCliquesOf: Int => Array[Int] = t => cs.triCliques(t).filter(kAlive(_))

    val inCandidate = new Array[Boolean](cs.nTriangles)
    val out         = mutable.ArrayBuffer.empty[ProbNucleus]
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
        out ++= validate(local.graph, cs, candTris, k, theta, nSamples, seed + t)
      }
      t += 1
    }
    out.toSeq
  }

  /** Monte-Carlo validation of one candidate (Algorithm 2, lines 9-16). */
  private def validate(g: ProbGraph, cs: repro.cliques.FourCliques.CliqueStructure,
                       candTris: Array[Int], k: Int,
                       theta: Double, nSamples: Int, seed: Long): Option[ProbNucleus] = {
    // candidate subgraph: union of its 4-cliques' edges (labels preserved),
    // which are its triangles' edges since every member triangle is in it
    val labeledEdges = candTris.flatMap { t =>
      val (u, v, w) = (cs.tris.u(t), cs.tris.v(t), cs.tris.w(t))
      Array((u, v), (u, w), (v, w))
    }.distinct.map { case (u, v) => (g.labels(u), g.labels(v), g.prob(u, v)) }
    val h  = ProbGraph(labeledEdges.toIndexedSeq)
    val ws = new DetNucleus.WorldStructure(h)
    // the candidate's triangles in h: both graphs number vertices in label order
    def hId(x: Int): Int = java.util.Arrays.binarySearch(h.labels, g.labels(x))
    val index = new Triangles.Index(h, ws.cs.tris)
    val hTris = candTris.map(t => index.at(h.slot(hId(cs.tris.u(t)), hId(cs.tris.v(t))), hId(cs.tris.w(t))))
    val counts = new Array[Int](hTris.length)
    val rnd    = new Random(seed)
    var s = 0
    while (s < nSamples) {
      val mask = Sampler.sampleMask(ws.edges, rnd)
      if (DetNucleus.isKNucleus(ws, mask, k)) {
        val alive = ws.aliveTriangles(mask)
        var i = 0
        while (i < hTris.length) { if (alive(hTris(i))) counts(i) += 1; i += 1 }
      }
      s += 1
    }
    val minTail = counts.min.toDouble / nSamples
    if (minTail >= theta)
      Some(ProbNucleus(k, h.labels.clone(), labeledEdges, minTail))
    else None
  }
}
