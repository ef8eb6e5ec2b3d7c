package org.apache.spark

/** Spark delivers listener events asynchronously. The traced run reads
  * its per-span Spark counts only after every event posted so far has
  * reached the listeners; the bus's drain call is package-private, hence
  * this bridge.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
