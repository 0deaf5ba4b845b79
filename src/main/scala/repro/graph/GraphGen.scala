package repro.graph

import scala.util.Random

/** Synthetic probabilistic-graph generator (dataset substitution layer).
  *
  * The paper evaluates on real graphs (krogan/dblp/flickr/pokec/biomine/
  * ljournal-2008/enwiki-2013) that are unavailable offline; per DESIGN.md §3
  * we substitute each with a deterministic synthetic stand-in: an
  * Erdős–Rényi background (sparse; few 4-cliques) plus planted cliques of
  * varying sizes (the dense nuclei the decomposition must find), with edge
  * probabilities drawn from a per-dataset distribution matching the paper's
  * description of that dataset's probability regime.
  */
object GraphGen {

  /** Edge-probability models mirroring the paper's datasets (§7.1). */
  sealed trait ProbDist { def sample(rnd: Random): Double }

  /** Uniform(lo, hi] — paper's synthetic probabilities for pokec/ljournal/enwiki. */
  final case class UniformDist(lo: Double = 0.0, hi: Double = 1.0) extends ProbDist {
    def sample(rnd: Random): Double = clamp(lo + rnd.nextDouble() * (hi - lo))
  }

  /** Normal(mu, sd) clipped to (0,1] — krogan-style high-confidence PPI, and
    * the pokec_Normal variant of Table 3.
    */
  final case class NormalDist(mu: Double, sd: Double) extends ProbDist {
    def sample(rnd: Random): Double = clamp(mu + rnd.nextGaussian() * sd)
  }

  /** Pareto with scale xm and shape alpha, capped at 1 — the pokec_Pareto
    * variant of Table 3 (probabilities concentrate near xm, i.e. small).
    */
  final case class ParetoDist(xm: Double = 0.05, alpha: Double = 2.0) extends ProbDist {
    def sample(rnd: Random): Double =
      clamp(xm / math.pow(1.0 - rnd.nextDouble(), 1.0 / alpha))
  }

  /** 1 − exp(−x/s) with x ~ Geometric-ish collaboration count — the dblp
    * model of [4, 43]; s = 4 calibrates the average to the paper's
    * p_avg ≈ 0.26 under a mean collaboration count ≈ 0.6.
    */
  final case class ExpCollabDist(meanCollab: Double = 0.6, s: Double = 4.0) extends ProbDist {
    def sample(rnd: Random): Double = {
      val x = 1 + (math.log(1 - rnd.nextDouble()) / math.log(1 - 1.0 / (1 + meanCollab))).toInt
      clamp(1.0 - math.exp(-x / s))
    }
  }

  /** Beta-like small probabilities (avg ≈ a/(a+b)) — flickr's Jaccard
    * coefficients and biomine's confidence scores. Sampled as the minimum of
    * b uniforms scaled, a cheap skewed-small draw.
    */
  final case class SkewedSmallDist(avg: Double) extends ProbDist {
    def sample(rnd: Random): Double = {
      // Exponential with mean `avg`, clipped: concentrates mass near 0.
      clamp(-avg * math.log(1 - rnd.nextDouble()))
    }
  }

  private def clamp(p: Double): Double = math.min(1.0, math.max(1e-4, p))

  /** Generator spec: ER background + planted cliques. Clique blocks are
    * drawn with some overlap (nuclei hierarchy / overlapping-nuclei
    * behaviour of §7.4). `cliqueDist`, when set, draws the planted-clique
    * edge probabilities from a different (typically higher-confidence)
    * distribution than the background — mirroring real networks, where the
    * dense communities the decompositions find are exactly the high-
    * probability ones (frequent co-authors, high-confidence interactions).
    */
  final case class Spec(
      nVertices: Int,
      nBackgroundEdges: Int,
      cliqueSizes: Seq[Int],
      dist: ProbDist,
      seed: Long,
      overlapFraction: Double = 0.15,
      cliqueDist: Option[ProbDist] = None
  )

  /** Generate the edge list for a spec. Deterministic in `spec.seed`.
    * Structure and probabilities use independent random streams so dataset
    * variants that differ only in `dist` share the exact same topology
    * (the Table 3 requirement).
    */
  def generate(spec: Spec): IndexedSeq[(Long, Long, Double)] = {
    val es = edges(spec)
    (0 until es.size).map(e => (es.a(e), es.b(e), es.p(e)))
  }

  def graph(spec: Spec): ProbGraph = {
    val es = edges(spec)
    ProbGraph.build(es.a, es.b, es.p, es.size)
  }

  /** [[generate]]'s edges in insertion order. A probability is drawn from
    * `probRnd` only for an edge not drawn before, and the ER loop stops on
    * the count of distinct edges.
    */
  private def edges(spec: Spec): EdgeSet = {
    val rnd     = new Random(spec.seed)
    val probRnd = new Random(spec.seed ^ 0x5DEECE66DL)
    val edges   = new EdgeSet
    def put(a: Int, b: Int, dist: ProbDist): Unit =
      if (a != b && edges.add(math.min(a, b), math.max(a, b))) edges.p(edges.size - 1) = dist.sample(probRnd)
    val plantedDist = spec.cliqueDist.getOrElse(spec.dist)
    // planted cliques: blocks of consecutive-ish vertices with some overlap
    var cursor = 0
    spec.cliqueSizes.foreach { size =>
      val members = new Array[Int](size)
      var i = 0
      while (i < size) {
        members(i) =
          if (rnd.nextDouble() < spec.overlapFraction && cursor > 0)
            rnd.nextInt(math.min(cursor + 1, spec.nVertices))
          else (cursor + i) % spec.nVertices
        i += 1
      }
      cursor = (cursor + size) % spec.nVertices
      var a = 0
      while (a < size) {
        var b = a + 1
        while (b < size) { put(members(a), members(b), plantedDist); b += 1 }
        a += 1
      }
    }
    // ER background
    var tries = 0
    val target = edges.size + spec.nBackgroundEdges
    while (edges.size < target && tries < spec.nBackgroundEdges * 4) {
      put(rnd.nextInt(spec.nVertices), rnd.nextInt(spec.nVertices), spec.dist)
      tries += 1
    }
    edges
  }

  /** Distinct edges (a, b), 0 ≤ a < b, in insertion order: growable arrays
    * `a`, `b`, `p` (the caller sets `p` of an added edge), and a set of the
    * packed keys `(a << 32) | b`, open addressing with linear probing. Key 0
    * would be the self-loop (0, 0), so 0 marks an empty slot. The set stays
    * at most half full and the arrays hold half its capacity.
    */
  private final class EdgeSet {
    private var keys = new Array[Long](32)
    var a    = new Array[Long](16)
    var b    = new Array[Long](16)
    var p    = new Array[Double](16)
    var size = 0

    /** Adds (x, y), x < y; false if it is already in. */
    def add(x: Int, y: Int): Boolean = {
      val key = (x.toLong << 32) | y
      var i = slot(keys, key)
      if (keys(i) == key) false
      else {
        if (size == a.length) {
          grow()
          i = slot(keys, key)
        }
        keys(i) = key
        a(size) = x; b(size) = y
        size += 1
        true
      }
    }

    private def grow(): Unit = {
      val next = new Array[Long](grownKeyCapacity(keys.length))
      var i = 0
      while (i < keys.length) { if (keys(i) != 0) next(slot(next, keys(i))) = keys(i); i += 1 }
      keys = next
      a = java.util.Arrays.copyOf(a, next.length / 2)
      b = java.util.Arrays.copyOf(b, next.length / 2)
      p = java.util.Arrays.copyOf(p, next.length / 2)
    }
  }

  /** The slot of `key` in `keys`, or the empty slot where it would go. */
  private def slot(keys: Array[Long], key: Long): Int = {
    val mask = keys.length - 1
    var i = ((key * 0x9E3779B97F4A7C15L) >>> 33).toInt & mask
    while (keys(i) != 0 && keys(i) != key) i = (i + 1) & mask
    i
  }

  /** The doubled capacity of a full key set of `capacity` slots (a power of
    * two); fails loudly where doubling would pass the largest power-of-two
    * `Int` array instead of wrapping.
    */
  private[graph] def grownKeyCapacity(capacity: Int): Int = {
    require(capacity < (1 << 30), s"more than ${capacity / 2} generated edges overflow the edge key set")
    2 * capacity
  }

  /** Planted clique sizes: `count` cliques with sizes cycling over `sizes`. */
  private def plant(count: Int, sizes: Int*): Seq[Int] =
    (0 until count).map(i => sizes(i % sizes.length))

  /** Named stand-ins for the paper's datasets (DESIGN.md §3). `scale`
    * multiplies vertex/edge/clique counts for the scalability sweeps.
    */
  def dataset(name: String, scale: Double = 1.0, seedOffset: Long = 0): ProbGraph =
    graph(spec(name, scale, seedOffset))

  /** The generator spec of the stand-in `name` (see [[dataset]]). */
  def spec(name: String, scale: Double = 1.0, seedOffset: Long = 0): Spec = {
    def s(x: Int): Int = math.max(1, (x * scale).round.toInt)
    name match {
      case "krogan" =>
        Spec(s(2708), s(5200), plant(s(24), 6, 8, 5, 10, 7), NormalDist(0.68, 0.15), 41L + seedOffset,
             cliqueDist = Some(NormalDist(0.8, 0.1)))
      case "dblp" =>
        Spec(s(15000), s(30000), plant(s(140), 5, 7, 6, 9, 12, 8), ExpCollabDist(0.6), 42L + seedOffset,
             cliqueDist = Some(NormalDist(0.75, 0.12)))
      case "flickr" =>
        Spec(s(8000), s(42000), plant(s(110), 8, 10, 7, 12, 14, 9), SkewedSmallDist(0.13), 43L + seedOffset,
             cliqueDist = Some(NormalDist(0.55, 0.15)))
      case "pokec" =>
        Spec(s(30000), s(110000), plant(s(210), 6, 8, 10, 7, 12, 9), UniformDist(), 44L + seedOffset)
      case "pokec_Normal" =>
        Spec(s(30000), s(110000), plant(s(210), 6, 8, 10, 7, 12, 9), NormalDist(0.5, 0.2), 44L + seedOffset)
      case "pokec_Pareto" =>
        Spec(s(30000), s(110000), plant(s(210), 6, 8, 10, 7, 12, 9), ParetoDist(0.05, 2.0), 44L + seedOffset)
      case "biomine" =>
        // one big high-confidence complex drives the large k_Nmax the paper
        // reports for biomine (18 at θ = 0.1)
        val complex = Seq(math.max(6, (24 * scale).round.toInt))
        Spec(s(25000), s(80000), plant(s(150), 7, 9, 6, 11, 16, 8) ++ complex,
             SkewedSmallDist(0.27), 45L + seedOffset,
             cliqueDist = Some(NormalDist(0.72, 0.12)))
      case "ljournal" =>
        Spec(s(50000), s(180000), plant(s(260), 6, 9, 12, 8, 15, 10), UniformDist(), 46L + seedOffset)
      case "enwiki" =>
        // a few large planted cliques give the high-c_Δ, high-κ triangles
        // that separate O(κ·c_Δ) DP from O(c_Δ) AP (paper: c_Δ up to 2813);
        // the clique probabilities stay uniform but bounded away from 0 so
        // κ is large at small θ yet triangles still die off as θ grows
        val big = Seq(40, 46, 52).map(x => math.max(6, (x * scale).round.toInt))
        Spec(s(60000), s(240000), plant(s(300), 7, 10, 13, 8, 18, 11) ++ big,
             UniformDist(), 47L + seedOffset,
             cliqueDist = Some(UniformDist(0.3, 1.0)))
      case other => throw new IllegalArgumentException(s"unknown dataset stand-in: $other")
    }
  }

  /** The six datasets of Tables 1 and 2, in the paper's (triangle-count) order. */
  val paperDatasets: Seq[String] =
    Seq("krogan", "dblp", "flickr", "pokec", "biomine", "ljournal")
}
