package repro.core

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

  /** κ-scorer: (itemExistProb, alive group probabilities, θ) → κ ∈ [-1, c].
    * The probabilities come as an exact-length array in group order that is
    * valid only during the call: `peel` refills it for later calls, so a
    * scorer must not keep it (copy what it needs).
    */
  type Scorer = (Double, Array[Double], Double) => Int

  /** The item/group hypergraph. Arrays `groupItems(g)` and `groupPrE(g)`
    * are aligned: groupPrE(g)(i) is Pr(E) contributed by group g to item
    * groupItems(g)(i). `itemGroups` is the inverse, each list in increasing
    * group order; `peel` derives its own item→group rows from `groupItems`.
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
    * items in processing order, initial κ values, the number of rescoring
    * scorer calls (every call after the initial one per item) and the
    * number of stale bucket entries popped (an item already processed, or
    * queued under a κ it has since left).
    */
  final case class Result(nu: Array[Int], order: Array[Int], initialKappa: Array[Int],
                          rescorings: Long, stalePops: Long)

  /** Run the peeling to completion. O(Σ κ·c) rescoring cost with a bucket
    * queue and lazy deletion, matching the paper's complexity analysis
    * (Batagelj–Zaveršnik bucket peeling). The bookkeeping is O(1) per queue
    * entry, a copy of the alive row into a reused buffer of its length per
    * scorer call, and a binary search plus an O(row) memmove per (dead
    * group, surviving member).
    *
    * The item→(group, Pr(E)) incidences are derived from `groupItems` as a
    * CSR (`off`, `eGroup`, `ePrE`) with each item's row in increasing group
    * order, the order `Input.ofGroups` gives `itemGroups`. Each row keeps its
    * alive groups as a prefix of length `aliveCnt`, still in group order: a
    * dead group is shifted out of every other member's prefix. `peel` rejects
    * more than `Int.MaxValue` incidences and a group that lists an item twice.
    */
  def peel(in: Input, theta: Double, scorer: Scorer): Result = {
    require(theta >= 0 && theta <= 1, s"θ must be in [0, 1], got $theta")
    val n  = in.nItems
    val nG = in.nGroups
    var total = 0L
    var g = 0
    while (g < nG) { total += in.groupItems(g).length; g += 1 }
    if (total > Int.MaxValue)
      throw new IllegalArgumentException(s"$total (group, item) incidences exceed ${Int.MaxValue}")

    // counting pass: row lengths, and stamp(item) = last group seen listing it
    val stamp = new Array[Int](n)
    val off   = new Array[Int](n + 1)
    java.util.Arrays.fill(stamp, -1)
    g = 0
    while (g < nG) {
      val members = in.groupItems(g)
      var j = 0
      while (j < members.length) {
        val item = members(j)
        if (stamp(item) == g) throw new IllegalArgumentException(s"group $g lists item $item twice")
        stamp(item) = g
        off(item + 1) += 1
        j += 1
      }
      g += 1
    }
    var i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    val eGroup   = new Array[Int](total.toInt)
    val ePrE     = new Array[Double](total.toInt)
    val aliveCnt = new Array[Int](n) // fill cursor, then the length of the item's alive prefix
    g = 0
    while (g < nG) {
      val members = in.groupItems(g)
      val prE     = in.groupPrE(g)
      var j = 0
      while (j < members.length) {
        val item = members(j)
        val e    = off(item) + aliveCnt(item)
        eGroup(e) = g
        ePrE(e)   = prE(j)
        aliveCnt(item) += 1
        j += 1
      }
      g += 1
    }

    val processed = new Array[Boolean](n)
    val kappa     = new Array[Int](n)
    val nu        = new Array[Int](n)
    val order     = new Array[Int](n)

    // one scorer buffer per row length c, allocated at its first use
    var maxRow = 0
    i = 0
    while (i < n) { maxRow = math.max(maxRow, aliveCnt(i)); i += 1 }
    val rows = new Array[Array[Double]](maxRow + 1)

    /** The item's Pr(E) over its alive groups, in group order, in the buffer of its length. */
    def aliveRow(item: Int): Array[Double] = {
      val c = aliveCnt(item)
      if (rows(c) == null) rows(c) = new Array[Double](c)
      System.arraycopy(ePrE, off(item), rows(c), 0, c)
      rows(c)
    }

    var maxK = 0
    i = 0
    while (i < n) {
      kappa(i) = scorer(in.itemProb(i), aliveRow(i), theta)
      if (kappa(i) > maxK) maxK = kappa(i)
      i += 1
    }
    val initial = kappa.clone()

    // FIFO bucket queue over κ ∈ [-1, maxK] (bucket κ + 1) with lazy
    // deletion: an entry is stale if its item was processed or its κ changed.
    val initialCount = new Array[Int](maxK + 2)
    i = 0
    while (i < n) { initialCount(kappa(i) + 1) += 1; i += 1 }
    val bucket = Array.tabulate(maxK + 2)(b => new Array[Int](initialCount(b)))
    val head   = new Array[Int](maxK + 2)
    val tail   = new Array[Int](maxK + 2)
    def push(b: Int, item: Int): Unit = {
      if (tail(b) == bucket(b).length) { // full: compact if at most half is live, else double
        val live = tail(b) - head(b)
        if (head(b) > 0 && 2 * live <= bucket(b).length)
          System.arraycopy(bucket(b), head(b), bucket(b), 0, live)
        else bucket(b) = java.util.Arrays.copyOfRange(bucket(b), head(b), head(b) + math.max(8, 2 * bucket(b).length))
        head(b) = 0
        tail(b) = live
      }
      bucket(b)(tail(b)) = item
      tail(b) += 1
    }
    i = 0
    while (i < n) { push(kappa(i) + 1, i); i += 1 }

    java.util.Arrays.fill(stamp, -1) // from here stamp(other) = the popped item that listed it
    val affected   = new Array[Int](n)
    var rescorings = 0L
    var stalePops  = 0L
    var level = 0 // current bucket being drained
    var done  = 0
    while (done < n) {
      while (head(level) == tail(level)) level += 1
      val item = bucket(level)(head(level))
      head(level) += 1
      if (processed(item) || kappa(item) + 1 != level) stalePops += 1
      else {
        processed(item) = true
        nu(item) = kappa(item)
        order(done) = item
        done += 1
        // kill this item's alive groups: remove each from the other members'
        // alive prefixes, and collect the affected neighbours in first-listed
        // order (an alive group has no processed member)
        var nAffected = 0
        var e = off(item)
        while (e < off(item) + aliveCnt(item)) {
          val grp     = eGroup(e)
          val members = in.groupItems(grp)
          var j = 0
          while (j < members.length) {
            val other = members(j)
            if (other != item) {
              val end = off(other) + aliveCnt(other)
              val at  = java.util.Arrays.binarySearch(eGroup, off(other), end, grp)
              System.arraycopy(eGroup, at + 1, eGroup, at, end - at - 1)
              System.arraycopy(ePrE, at + 1, ePrE, at, end - at - 1)
              aliveCnt(other) -= 1
              if (kappa(other) > kappa(item) && stamp(other) != item) {
                stamp(other) = item
                affected(nAffected) = other
                nAffected += 1
              }
            }
            j += 1
          }
          e += 1
        }
        var a = 0
        while (a < nAffected) {
          val other   = affected(a)
          val fresh   = scorer(in.itemProb(other), aliveRow(other), theta)
          val clamped = math.max(fresh, kappa(item)) // monotone-peeling clamp
          rescorings += 1
          if (clamped < kappa(other)) {
            kappa(other) = clamped
            // clamped ≥ κ(item), whose bucket is `level`: never below the level being drained
            push(clamped + 1, other)
          }
          a += 1
        }
      }
    }
    Result(nu, order, initial, rescorings, stalePops)
  }
}
