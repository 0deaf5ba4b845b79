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

  /** The integer threshold of Pr(e) = p ∈ (0, 1]: T = ⌈p·2⁵³⌉ ∈ [1, 2⁵³].
    * A draw r < 2⁵³ passes `java.util.Random`'s `nextDouble() < p` iff
    * r·2⁻⁵³ < p; both scalings are exact, so iff r < T.
    */
  def threshold(p: Double): Long = math.ceil(p * (1L << 53)).toLong

  /** Fill `edgeW` with the next `b` ≤ 64 worlds of `rng`: bit w of
    * `edgeW(i)` is set iff world w's draw for edge i is below
    * `thresholds(i)`. World w draws once per edge in order after world
    * w − 1, so it is the w-th run of m draws; bits b and above are clear.
    * Returns `edgeW`. Worlds are drawn 4 at a time on 4 lanes: a draw is two
    * steps, so lane j starts 2jm steps past lane 0, one jump of 2m steps
    * after lane j − 1. A lane carries only its second state, s·M² + A(M + 1),
    * on; the first, s·M + A, with the draw's high 26 bits, hangs off it. A
    * short last group keeps its real worlds' bits and leaves `rng` at the
    * end of its last real world.
    */
  def sampleBatch(thresholds: Array[Long], rng: WorldRng, b: Int, edgeW: Array[Long]): Array[Long] = {
    val mul  = WorldRng.Multiplier; val add = WorldRng.Addend; val mask = WorldRng.Mask
    val mul2 = mul * mul; val add2 = add * (mul + 1); val m = thresholds.length
    val jc   = WorldRng.skip(0L, 2L * m); val ja = WorldRng.skip(1L, 2L * m) - jc // the jump: s ↦ ja·s + jc
    // 1 iff the draw r = (hi >>> 22 << 27) + (lo >>> 21) of a step's two states is below t
    def below(hi: Long, lo: Long, t: Long): Long = ((((hi & mask) >>> 22 << 27) + ((lo & mask) >>> 21)) - t) >>> 63
    java.util.Arrays.fill(edgeW, 0L)
    var s = rng.state
    var w = 0
    while (w < b) {
      var x0 = s; var x1 = ja * x0 + jc; var x2 = ja * x1 + jc; var x3 = ja * x2 + jc
      val real = math.min(4, b - w)
      var i = 0
      while (i < m) {
        val t  = thresholds(i)
        val h0 = x0 * mul + add; val h1 = x1 * mul + add; val h2 = x2 * mul + add; val h3 = x3 * mul + add
        x0 = x0 * mul2 + add2; x1 = x1 * mul2 + add2; x2 = x2 * mul2 + add2; x3 = x3 * mul2 + add2
        val bits = below(h0, x0, t) | below(h1, x1, t) << 1 | below(h2, x2, t) << 2 | below(h3, x3, t) << 3
        edgeW(i) |= (bits & ((1L << real) - 1)) << w
        i += 1
      }
      s = if (real == 4) x3 else if (real == 3) x2 else if (real == 2) x1 else x0
      w += 4
    }
    rng.state = s & mask
    edgeW
  }

  /** Fill `mask` with the next world of `rng` for edges of Pr(e) `probs`: a batch of one. Returns `mask`. */
  def sampleMask(probs: Array[Double], rng: WorldRng, mask: Array[Boolean]): Array[Boolean] = {
    val w = sampleBatch(probs.map(threshold), rng, 1, new Array[Long](probs.length))
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
