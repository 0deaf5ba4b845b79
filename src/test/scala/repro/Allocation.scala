package repro

/** What a call allocates, for the allocation guards: the current thread's
  * allocated bytes from HotSpot's `com.sun.management.ThreadMXBean`, and an
  * upper bound on the heap size of an array.
  */
object Allocation {

  private val threads =
    java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** `body`'s result and the bytes the current thread allocated running it. */
  def measure[A](body: => A): (A, Long) = {
    val id = Thread.currentThread().getId
    val a0 = threads.getThreadAllocatedBytes(id)
    val r  = body
    val a1 = threads.getThreadAllocatedBytes(id)
    (r, a1 - a0)
  }

  /** At least the heap size of an array of `length` elements of `elemBytes`
    * each, with or without compressed pointers: a header of at most 24
    * bytes, padded to 8. Pass 8 for a reference array.
    */
  def array(elemBytes: Int, length: Long): Long = (24 + elemBytes * length + 7) / 8 * 8
}
