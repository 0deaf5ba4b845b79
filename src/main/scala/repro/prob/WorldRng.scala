package repro.prob

/** The 48-bit linear congruential generator that `java.util.Random`
  * documents, held in a plain `long`: the same seed scramble and step, so
  * `new WorldRng(s)` walks the states of `new java.util.Random(s)`. Its one
  * draw loop, [[Sampler.sampleBatch]], advances `state` itself, with none
  * of `java.util.Random`'s per-draw compare-and-set.
  */
final class WorldRng(seed: Long) {
  private[prob] var state: Long = (seed ^ WorldRng.Multiplier) & WorldRng.Mask
}

object WorldRng {
  private[prob] val Multiplier = 0x5DEECE66DL
  private[prob] val Addend     = 0xBL
  private[prob] val Mask       = (1L << 48) - 1

  /** The state n ≥ 0 steps after `s` in O(log n): the step s ↦ a·s + c
    * twice is s ↦ a²·s + c(a + 1), so the maps of 2ⁱ steps come by squaring
    * (F. B. Brown, "Random number generation with arbitrary strides", 1994).
    */
  private[prob] def skip(s: Long, n: Long): Long = {
    var x = s; var a = Multiplier; var c = Addend; var k = n
    while (k > 0) { if ((k & 1L) != 0L) x = x * a + c; c *= a + 1; a *= a; k >>>= 1 }
    x & Mask
  }
}
