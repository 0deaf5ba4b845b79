package repro.prob

import repro.graph.ProbGraph

/** Possible-world sampling (Section 6).
  *
  * A sampled world keeps each edge independently with its probability; per
  * the paper's space note a world is a bit per edge over the canonical edge
  * list. Every world is drawn by [[sampleMask]] from a [[WorldRng]]. g and w
  * evaluate these masks over their candidate's structure
  * (`DetNucleus.WorldStructure`); [[worldGraph]] expands a mask to a
  * deterministic [[ProbGraph]] (all probabilities 1) for the brute-force
  * oracle and the reference checks.
  */
object Sampler {

  /** Hoeffding sample size n ≥ ⌈ln(2/δ) / (2ε²)⌉ (Lemma 4), for ε > 0,
    * δ ∈ (0,1) and a bound that fits in an `Int`.
    */
  def hoeffdingSamples(eps: Double, delta: Double): Int = {
    require(eps > 0.0, s"Hoeffding ε must be positive, got $eps")
    require(delta > 0.0 && delta < 1.0, s"Hoeffding δ must be in (0,1), got $delta")
    val n = math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps))
    require(n <= Int.MaxValue, s"Hoeffding bound $n for ε = $eps, δ = $delta does not fit in an Int")
    n.toInt
  }

  /** Fill `mask` with the next world of `rng`: edge i is present iff its
    * draw is below `probs(i)`, one draw per edge in order. Returns `mask`.
    */
  def sampleMask(probs: Array[Double], rng: WorldRng, mask: Array[Boolean]): Array[Boolean] = {
    var i = 0
    while (i < probs.length) { mask(i) = rng.nextDouble() < probs(i); i += 1 }
    mask
  }

  /** Expand a mask to a deterministic graph (p ≡ 1) on the present edges.
    * Vertex labels are preserved through `labels` of the source graph.
    */
  def worldGraph(g: ProbGraph, edges: Array[(Int, Int, Double)], mask: Array[Boolean]): ProbGraph =
    g.subgraph(edges.indices.collect { case i if mask(i) => (edges(i)._1, edges(i)._2, 1.0) })

  /** Sample n worlds of g as deterministic graphs, deterministic in seed. */
  def sampleWorlds(g: ProbGraph, n: Int, seed: Long): IndexedSeq[ProbGraph] = {
    val rng   = new WorldRng(seed)
    val edges = g.edges
    val probs = edges.map(_._3)
    (0 until n).map(_ => worldGraph(g, edges, sampleMask(probs, rng, new Array[Boolean](edges.length))))
  }
}
