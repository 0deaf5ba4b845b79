package repro.prob

import repro.graph.ProbGraph

/** Possible-world sampling (Section 6).
  *
  * A sampled world keeps each edge independently with its probability; per
  * the paper's space note a world is a bit per edge over the canonical edge
  * list. Every world is drawn by [[sampleBatch]] from a [[WorldRng]], up to
  * 64 at a time as one bit of a `Long` per edge. g and w evaluate these
  * words over their candidate's structure (`DetNucleus.WorldStructure`);
  * [[sampleMask]] is one world of a batch as a mask, and [[worldGraph]]
  * expands a mask to a deterministic [[ProbGraph]] (all probabilities 1) for
  * the brute-force oracle and the reference checks.
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

  /** Fill `edgeW` with the next `b` ≤ 64 worlds of `rng`: bit w of
    * `edgeW(i)` is set iff world w's draw for edge i is below `probs(i)`.
    * World w draws once per edge in order after world w − 1, so it is the
    * w-th run of m draws; bits b and above are clear. Returns `edgeW`.
    */
  def sampleBatch(probs: Array[Double], rng: WorldRng, b: Int, edgeW: Array[Long]): Array[Long] = {
    java.util.Arrays.fill(edgeW, 0L)
    var w = 0
    while (w < b) {
      var i = 0
      while (i < probs.length) { edgeW(i) |= (if (rng.nextDouble() < probs(i)) 1L else 0L) << w; i += 1 }
      w += 1
    }
    edgeW
  }

  /** Fill `mask` with the next world of `rng`: a batch of one. Returns `mask`. */
  def sampleMask(probs: Array[Double], rng: WorldRng, mask: Array[Boolean]): Array[Boolean] = {
    val w = sampleBatch(probs, rng, 1, new Array[Long](probs.length))
    w.indices.foreach(i => mask(i) = w(i) != 0L)
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
