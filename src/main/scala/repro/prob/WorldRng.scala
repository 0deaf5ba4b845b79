package repro.prob

/** The 48-bit linear congruential generator that `java.util.Random`
  * documents, held in a plain `long`: the same seed scramble, `next(bits)`
  * and `nextDouble`, so `new WorldRng(s)` draws exactly the doubles of
  * `new java.util.Random(s)`. One world loop owns it, so it needs none of
  * `java.util.Random`'s per-draw compare-and-set.
  */
final class WorldRng(seed: Long) {
  private[this] var state = (seed ^ WorldRng.Multiplier) & WorldRng.Mask

  private def next(bits: Int): Int = {
    state = (state * WorldRng.Multiplier + WorldRng.Addend) & WorldRng.Mask
    (state >>> (48 - bits)).toInt
  }

  /** Uniform in [0, 1) on the 2⁻⁵³ grid: 26 high bits, then 27 low bits. */
  def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) * WorldRng.DoubleUnit
}

object WorldRng {
  private val Multiplier = 0x5DEECE66DL
  private val Addend     = 0xBL
  private val Mask       = (1L << 48) - 1
  private val DoubleUnit = 1.0 / (1L << 53)
}
