package repro.prob

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, ProbGraph}
import scala.util.Random

/** Possible-world sampling: Hoeffding bound arithmetic, determinism, and
  * distributional correctness.
  */
class SamplerSpec extends AnyFunSuite {

  private val g = ProbGraph(Seq((0L, 1L, 0.5), (1L, 2L, 0.25), (0L, 2L, 1.0)))

  test("Hoeffding bound values") {
    assert(Sampler.hoeffdingSamples(0.1, 0.1) == 150)
    assert(Sampler.hoeffdingSamples(0.05, 0.05) == 738)
    assert(Sampler.hoeffdingSamples(0.03, 0.05) == 2050)
  }

  test("Hoeffding bound rejects ε ≤ 0, δ outside (0,1) and bounds past Int.MaxValue") {
    for (eps <- Seq(0.0, -0.1, Double.NaN))
      intercept[IllegalArgumentException](Sampler.hoeffdingSamples(eps, 0.1))
    for (delta <- Seq(0.0, 1.0, 1.5, -0.1, Double.NaN))
      intercept[IllegalArgumentException](Sampler.hoeffdingSamples(0.1, delta))
    // ln(20) / (2·10⁻¹²) ≈ 1.5·10¹² samples
    intercept[IllegalArgumentException](Sampler.hoeffdingSamples(1e-6, 0.1))
    assert(Sampler.hoeffdingSamples(1e-4, 0.1) == 149786614)
  }

  test("sampling is deterministic in the seed") {
    val a = Sampler.sampleWorlds(g, 20, seed = 5).map(_.m)
    val b = Sampler.sampleWorlds(g, 20, seed = 5).map(_.m)
    assert(a == b)
    val c = Sampler.sampleWorlds(g, 20, seed = 6).map(_.m)
    assert(a != c || a.sum == 60) // different seed differs unless saturated
  }

  test("sampleMask and sampleWorlds draw java.util.Random(seed)'s stream, one double per edge in order") {
    val big   = ProbGraph(for { a <- 0 until 7; b <- a + 1 until 7 } yield (a.toLong, b.toLong, (a + b + 1) / 13.0))
    val edges = big.edges
    val rnd   = new Random(77)
    val rng   = new WorldRng(77)
    val mask  = new Array[Boolean](edges.length)
    val masks = for (_ <- 1 to 50) yield {
      val want = edges.map { case (_, _, p) => rnd.nextDouble() < p }
      assert(Sampler.sampleMask(edges.map(_._3), rng, mask) eq mask)
      assert(mask.sameElements(want))
      want
    }
    val worlds = Sampler.sampleWorlds(big, 50, seed = 77)
    worlds.zip(masks).foreach { case (w, m) =>
      assert(w.edges.sameElements(Sampler.worldGraph(big, edges, m).edges))
    }
  }

  test("bit w of sampleBatch is the w-th sampleMask world of the same seed, across batches") {
    val big   = ProbGraph(for { a <- 0 until 7; b <- a + 1 until 7 } yield (a.toLong, b.toLong, (a + b + 1) / 13.0))
    val probs = big.edgeProbs
    val ts    = probs.map(Sampler.threshold)
    val rnd   = new Random(91)
    val (batches, masks) = (new WorldRng(91), new WorldRng(91))
    val edgeW = Array.fill(probs.length)(-1L) // stale bits from a previous batch must go
    var worlds = 0
    for (b <- Seq(64, 1, 63, 17, 64, 2)) {
      assert(Sampler.sampleBatch(ts, batches, b, edgeW) eq edgeW)
      for (w <- 0 until b) {
        val mask = Sampler.sampleMask(probs, masks, new Array[Boolean](probs.length))
        val want = probs.map(rnd.nextDouble() < _)
        assert(mask.sameElements(want), s"world $worlds")
        assert(edgeW.map(x => (x >>> w & 1L) == 1L).sameElements(want), s"batch of $b, bit $w")
        worlds += 1
      }
      if (b < 64) assert(edgeW.forall(_ >>> b == 0L), s"batch of $b: bits above the batch are set")
    }
    assert(edgeW.exists(_ != 0L) && edgeW.exists(_ != -1L))
  }

  test("bit w of sampleBatch is java.util.Random(seed)'s w-th run of m draws, alone and in chained batches") {
    val sizes = Seq(1, 2, 3, 4, 5, 7, 8, 63, 64)
    for (seed <- WorldRngSpec.seeds; m <- Seq(0, 1, 2, 3, 33)) {
      val rnd   = new Random(seed + m)
      val probs = Array.tabulate(m)(i => if (i % 5 == 4) 1.0 else 1.0 - rnd.nextDouble())
      val ts    = probs.map(Sampler.threshold)
      val edgeW = new Array[Long](m)
      // each size from a fresh generator, then all of them with the generator carried on
      for (chain <- sizes.map(Seq(_)) :+ sizes) {
        val rng = new WorldRng(seed)
        val ref = new java.util.Random(seed)
        java.util.Arrays.fill(edgeW, -1L) // stale bits must go
        for (b <- chain) {
          Sampler.sampleBatch(ts, rng, b, edgeW)
          for (w <- 0 until b) {
            val want = probs.map(ref.nextDouble() < _)
            assert(edgeW.map(x => (x >>> w & 1L) == 1L).sameElements(want), s"seed $seed, m = $m, batches $chain: bit $w of $b")
          }
          if (b < 64) assert(edgeW.forall(_ >>> b == 0L), s"seed $seed, m = $m: bits above a batch of $b are set")
        }
      }
    }
  }

  test("the integer threshold keeps a draw r iff r·2⁻⁵³ < p, at and around T = ⌈p·2⁵³⌉") {
    val unit  = 1.0 / (1L << 53) // 2⁻⁵³, exact
    val top   = (1L << 53) - 1   // the largest draw
    val rnd   = new Random(53)
    val fixed = Seq(1.0, Math.nextDown(1.0), 0.5, unit, Math.nextUp(unit), Math.nextDown(unit), Double.MinPositiveValue)
    // on the 2⁻⁵³ grid (where T = p·2⁵³) and off it, down to 2⁻⁶⁰
    val random = Seq.fill(100000)(if (rnd.nextBoolean()) 1.0 - rnd.nextDouble() else math.pow(2.0, -60.0 * rnd.nextDouble()))
    for (p <- fixed ++ GraphGen.dataset("krogan").edgeProbs ++ random) {
      val t = Sampler.threshold(p)
      assert(t >= 1L && t <= (1L << 53), s"p = $p: T = $t")
      for (r <- Seq(0L, 1L, t - 1, t, t + 1, top) if r <= top)
        if ((r < t) != (r * unit < p)) fail(s"p = $p, T = $t: draw $r is kept by ${if (r < t) "T" else "p"} only")
    }
  }

  test("certain edges always appear; per-edge frequency tracks probability") {
    val edges  = g.edges
    val probs  = edges.map(_._3)
    val rng    = new WorldRng(42)
    val n      = 4000
    val counts = new Array[Int](edges.length)
    for (_ <- 1 to n) {
      val mask = Sampler.sampleMask(probs, rng, new Array[Boolean](edges.length))
      mask.zipWithIndex.foreach { case (b, i) => if (b) counts(i) += 1 }
    }
    edges.zipWithIndex.foreach { case ((_, _, p), i) =>
      val freq = counts(i).toDouble / n
      assert(math.abs(freq - p) < 0.03, s"edge $i freq $freq vs p $p")
      if (p == 1.0) assert(counts(i) == n)
    }
  }

  test("world graphs keep original labels and set probabilities to 1") {
    val edges = g.edges
    val world = Sampler.worldGraph(g, edges, Array(true, false, true))
    assert(world.m == 2)
    world.edges.foreach { case (_, _, p) => assert(p == 1.0) }
    world.labels.foreach(l => assert(g.labels.contains(l)))
  }

  test("empty mask gives an empty world") {
    val world = Sampler.worldGraph(g, g.edges, Array(false, false, false))
    assert(world.n == 0 && world.m == 0)
  }
}
