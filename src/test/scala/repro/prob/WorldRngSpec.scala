package repro.prob

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** `WorldRng` against the generator it reproduces, `java.util.Random`:
  * through its one draw loop, `Sampler.sampleBatch`, draw for draw, and its
  * jump against single steps.
  */
class WorldRngSpec extends AnyFunSuite {
  import WorldRngSpec.seeds

  test("sampleBatch keeps an edge iff java.util.Random(seed)'s nextDouble() < Pr(e)") {
    // 10⁵ draws per seed: 1000 edges of random Pr(e) in (0, 1], 100 worlds in chained batches of 64, 1, 3 and 32
    val rnd   = new Random(5)
    val probs = Array.fill(1000)(1.0 - rnd.nextDouble())
    val ts    = probs.map(Sampler.threshold)
    val edgeW = new Array[Long](probs.length)
    for (seed <- seeds) {
      val rng = new WorldRng(seed)
      val ref = new java.util.Random(seed)
      var world = 0
      for (b <- Seq(64, 1, 3, 32)) {
        Sampler.sampleBatch(ts, rng, b, edgeW)
        for (w <- 0 until b) {
          var i = 0
          while (i < probs.length) {
            val want = ref.nextDouble() < probs(i)
            if ((edgeW(i) >>> w & 1L) != (if (want) 1L else 0L))
              fail(s"seed $seed world $world edge $i: bit ${edgeW(i) >>> w & 1L}, java.util.Random keeps it: $want")
            i += 1
          }
          world += 1
        }
      }
    }
  }

  test("one jump of n steps equals n single steps") {
    def step(s: Long): Long = (s * 0x5DEECE66DL + 0xBL) & ((1L << 48) - 1)
    for (seed <- seeds; m <- Seq(1, 3, 33, 1000)) {
      val s0 = new WorldRng(seed).state
      for (n <- Seq(0L, 1L, 2L, 2L * m, 126L * m)) {
        var s = s0; var i = 0L
        while (i < n) { s = step(s); i += 1 }
        assert(WorldRng.skip(s0, n) == s, s"seed $seed: a jump of $n steps")
      }
    }
  }
}

object WorldRngSpec {
  /** Table 5's g and w seeds (base 1234) at n = 150 and 300, their level-1
    * offsets, and some edge values.
    */
  val seeds: Seq[Long] = {
    val table5 = for { n <- Seq(150L, 300L); s <- Seq(1234L + n, 1234L + 31L * n) } yield s
    Seq(0L, 1L, -1L, 42L, Long.MinValue, Long.MaxValue) ++ table5 ++ table5.flatMap(s => Seq(s + 1, s + 7919L))
  }
}
