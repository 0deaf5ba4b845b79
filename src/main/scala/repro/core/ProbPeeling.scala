package repro.core

import scala.collection.mutable

/** Generic probabilistic peeling kernel.
  *
  * All four decompositions in this repo are instances of one abstract
  * problem: *items* (triangles / edges / vertices) supported by *groups*
  * (4-cliques / triangles / incident edges), where each (group, member) pair
  * carries a Bernoulli probability Pr(E_i) and each item an existence
  * probability multiplier. An item's score
  * κ = max k with itemProb·Pr[ζ ≥ k] ≥ θ, ζ the Poisson-binomial over its
  * alive groups' Pr(E_i). A group dies when any of its member items is
  * processed. Peeling repeatedly processes a minimum-κ item, records
  * ν(item) = κ, kills its groups and rescores the affected neighbours
  * (clamped below by the current level, the standard monotone-peeling
  * invariant, cf. Batagelj–Zaveršnik [2] and Algorithm 1).
  *
  * Instances:
  *  - ℓ-NuDecomp: items = triangles (itemProb = Pr(Δ)), groups = 4-cliques;
  *  - probabilistic (k,γ)-truss: items = edges (itemProb = p(e)),
  *    groups = triangles, Pr(E_i) = product of the two wing edges;
  *  - probabilistic (k,η)-core: items = vertices (itemProb = 1),
  *    groups = incident edges, Pr(E_i) = p(e);
  *  - deterministic decompositions: all probabilities 1, any θ ∈ (0,1] —
  *    κ degenerates to the alive-group count.
  */
object ProbPeeling {

  /** κ-scorer: (itemExistProb, alive group probabilities, θ) → κ ∈ [-1, c]. */
  type Scorer = (Double, Array[Double], Double) => Int

  /** The item/group hypergraph. Arrays `groupItems(g)` and `groupPrE(g)`
    * are aligned: groupPrE(g)(i) is Pr(E) contributed by group g to item
    * groupItems(g)(i).
    */
  final case class Input(
      itemProb: Array[Double],
      groupItems: Array[Array[Int]],
      groupPrE: Array[Array[Double]],
      itemGroups: Array[Array[Int]]
  ) {
    def nItems: Int  = itemProb.length
    def nGroups: Int = groupItems.length
  }

  object Input {

    /** The input of groups of a fixed `arity`: group g's members are
      * `members(arity·g until arity·(g+1))` with the aligned Pr(E) values in
      * `prE`. Each item's group list is in increasing group order, so a
      * scorer sees an item's probabilities in group order.
      */
    def ofGroups(itemProb: Array[Double], arity: Int, members: Array[Int], prE: Array[Double]): Input = {
      require(arity >= 1 && members.length % arity == 0 && prE.length == members.length,
        s"${members.length} members and ${prE.length} Pr(E) values do not form groups of $arity")
      val nG         = members.length / arity
      val groupItems = new Array[Array[Int]](nG)
      val groupPrE   = new Array[Array[Double]](nG)
      var g = 0
      while (g < nG) {
        groupItems(g) = java.util.Arrays.copyOfRange(members, arity * g, arity * (g + 1))
        groupPrE(g)   = java.util.Arrays.copyOfRange(prE, arity * g, arity * (g + 1))
        g += 1
      }
      val deg = new Array[Int](itemProb.length) // group counts, then fill cursors
      var i = 0
      while (i < members.length) { deg(members(i)) += 1; i += 1 }
      val itemGroups = new Array[Array[Int]](itemProb.length)
      i = 0
      while (i < itemProb.length) { itemGroups(i) = new Array[Int](deg(i)); deg(i) = 0; i += 1 }
      i = 0
      while (i < members.length) {
        val item = members(i)
        itemGroups(item)(deg(item)) = i / arity
        deg(item) += 1
        i += 1
      }
      Input(itemProb, groupItems, groupPrE, itemGroups)
    }
  }

  /** Result: final scores ν (−1 = item's own existence probability < θ),
    * items in processing order, and initial κ values.
    */
  final case class Result(nu: Array[Int], order: Array[Int], initialKappa: Array[Int])

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

  /** Run the peeling to completion. O(Σ κ·c) rescoring cost with a bucket
    * queue and lazy deletion, matching the paper's complexity analysis.
    */
  def peel(in: Input, theta: Double, scorer: Scorer): Result = {
    require(theta >= 0 && theta <= 1, s"θ must be in [0, 1], got $theta")
    val n          = in.nItems
    val aliveGroup = Array.fill(in.nGroups)(true)
    val processed  = new Array[Boolean](n)
    val kappa      = new Array[Int](n)
    val nu         = new Array[Int](n)
    val order      = new Array[Int](n)

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
          val clamped = math.max(fresh, kappa(item)) // monotone-peeling clamp
          if (clamped < kappa(other)) {
            kappa(other) = clamped
            // clamped ≥ κ(item), whose bucket is `level`: never below the level being drained
            buckets(bucketOf(clamped)).append(other)
          }
        }
      }
    }
    Result(nu, order, initial)
  }
}
