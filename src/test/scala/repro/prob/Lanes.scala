package repro.prob

/** A batch of worlds, one `Long` per edge with world w in bit w (as
  * `Sampler.sampleBatch` fills it), to and from one mask per world.
  */
object Lanes {

  /** World w of the batch `words`, as a mask over its edges. */
  def mask(words: Array[Long], w: Int): Array[Boolean] = words.map(x => (x >>> w & 1L) != 0L)

  /** Up to 64 masks over the same m edges as one batch, mask w in bit w. */
  def pack(masks: Seq[Array[Boolean]], m: Int): Array[Long] = {
    require(masks.length <= 64, s"${masks.length} masks do not fit in a word")
    Array.tabulate(m)(e => masks.indices.foldLeft(0L)((x, w) => if (masks(w)(e)) x | 1L << w else x))
  }
}
