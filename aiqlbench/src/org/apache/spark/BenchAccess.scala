package org.apache.spark

/** The one package-private Spark call the benchmark needs: waiting until the
  * asynchronous listener bus has delivered every posted event, so that the
  * job, stage and task counters of a finished call are complete when read.
  */
object BenchAccess {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
