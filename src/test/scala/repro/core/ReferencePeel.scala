package repro.core

import scala.collection.mutable
import repro.core.ProbPeeling.{Input, Result, Scorer}

/** The nested peeling kernel `ProbPeeling.peel` replaced, kept as the
  * reference it is compared against: each scorer array is collected by
  * scanning the item's alive groups for the item, the affected neighbours
  * of a pop go into a `LinkedHashSet`, and the buckets are `ArrayDeque`s.
  * Apart from counting rescorings and stale pops it is unchanged.
  */
object ReferencePeel {

  /** Current Pr(E) multiset of an item over alive groups. */
  private def aliveProbs(in: Input, aliveGroup: Array[Boolean], item: Int): Array[Double] = {
    val gs  = in.itemGroups(item)
    val buf = Array.newBuilder[Double]
    var i = 0
    while (i < gs.length) {
      val g = gs(i)
      if (aliveGroup(g)) {
        val members = in.groupItems(g)
        var j = 0
        while (j < members.length) {
          if (members(j) == item) buf += in.groupPrE(g)(j)
          j += 1
        }
      }
      i += 1
    }
    buf.result()
  }

  def peel(in: Input, theta: Double, scorer: Scorer): Result = {
    require(theta >= 0 && theta <= 1, s"θ must be in [0, 1], got $theta")
    val n          = in.nItems
    val aliveGroup = Array.fill(in.nGroups)(true)
    val processed  = new Array[Boolean](n)
    val kappa      = new Array[Int](n)
    val nu         = new Array[Int](n)
    val order      = new Array[Int](n)
    var rescorings = 0L
    var stalePops  = 0L

    var maxK = 0
    var i = 0
    while (i < n) {
      kappa(i) = scorer(in.itemProb(i), aliveProbs(in, aliveGroup, i), theta)
      if (kappa(i) > maxK) maxK = kappa(i)
      i += 1
    }
    val initial = kappa.clone()

    // bucket queue over κ ∈ [-1, maxK]; lazy deletion (entries are stale if
    // the item's κ changed or it was already processed).
    val buckets = Array.fill(maxK + 2)(mutable.ArrayDeque.empty[Int])
    def bucketOf(k: Int) = k + 1
    i = 0
    while (i < n) { buckets(bucketOf(kappa(i))).append(i); i += 1 }

    var level = 0 // current bucket being drained
    var done  = 0
    var pos   = 0
    while (done < n) {
      while (level < buckets.length && buckets(level).isEmpty) level += 1
      val item = buckets(level).removeHead()
      if (!processed(item) && bucketOf(kappa(item)) == level) {
        processed(item) = true
        nu(item) = kappa(item)
        order(pos) = item; pos += 1
        done += 1
        // kill this item's alive groups; collect affected neighbours
        val affected = mutable.LinkedHashSet.empty[Int]
        val gs = in.itemGroups(item)
        var gi = 0
        while (gi < gs.length) {
          val g = gs(gi)
          if (aliveGroup(g)) {
            aliveGroup(g) = false
            val members = in.groupItems(g)
            var j = 0
            while (j < members.length) {
              val other = members(j)
              if (other != item && !processed(other) && kappa(other) > kappa(item))
                affected += other
              j += 1
            }
          }
          gi += 1
        }
        affected.foreach { other =>
          val fresh = scorer(in.itemProb(other), aliveProbs(in, aliveGroup, other), theta)
          rescorings += 1
          val clamped = math.max(fresh, kappa(item)) // monotone-peeling clamp
          if (clamped < kappa(other)) {
            kappa(other) = clamped
            // clamped ≥ κ(item), whose bucket is `level`: never below the level being drained
            buckets(bucketOf(clamped)).append(other)
          }
        }
      } else stalePops += 1
    }
    Result(nu, order, initial, rescorings, stalePops)
  }
}
