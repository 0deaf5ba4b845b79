package repro.prob

import org.scalatest.funsuite.AnyFunSuite

/** `WorldRng` against the generator it reproduces: `java.util.Random`'s
  * `nextDouble`, raw bit for raw bit.
  */
class WorldRngSpec extends AnyFunSuite {

  test("WorldRng draws java.util.Random(seed)'s doubles bit for bit over 10⁵ draws") {
    // Table 5's g and w seeds (base 1234) at n = 150 and 300, and their level-1 offsets
    val table5 = for { n <- Seq(150L, 300L); s <- Seq(1234L + n, 1234L + 31L * n) } yield s
    val seeds  = Seq(0L, 1L, -1L, 42L, Long.MinValue, Long.MaxValue) ++ table5 ++
      table5.flatMap(s => Seq(s + 1, s + 7919L))
    for (seed <- seeds) {
      val rng = new WorldRng(seed)
      val ref = new java.util.Random(seed)
      var i = 0
      while (i < 100000) {
        val (got, want) = (rng.nextDouble(), ref.nextDouble())
        if (java.lang.Double.doubleToLongBits(got) != java.lang.Double.doubleToLongBits(want))
          fail(s"seed $seed draw $i: $got, java.util.Random $want")
        i += 1
      }
    }
  }
}
