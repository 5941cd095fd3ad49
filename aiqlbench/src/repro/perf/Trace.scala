package repro.perf

import java.util.UUID

import scala.collection.mutable

import org.apache.spark.{BenchAccess, SparkContext}
import org.apache.spark.scheduler._

/** Spark work launched under one job group. Job times are epoch ms. */
final class GroupWork {
  /** (job id, start ms, end ms); end is NaN until the job has ended. */
  val jobs = mutable.ArrayBuffer[(Int, Double, Double)]()
  var stages = 0
  var tasks = 0
  var inputBytes = 0L
  var inputRecords = 0L
  var shuffleWriteBytes = 0L
  var spillBytes = 0L
  def jobIntervals: Seq[(Double, Double)] = jobs.toSeq.map(j => (j._2, j._3))
}

/** Charges every job, stage and task to the job group of the thread that
  * launched it (`spark.jobGroup.id`, inherited by threads the call creates).
  * Registered only while a traced query runs. Events arrive on Spark's
  * listener thread; readers call [[Tracer.drain]] first.
  */
final class JobListener extends SparkListener {
  private val groups = mutable.HashMap[String, GroupWork]()
  private val jobGroup = mutable.HashMap[Int, String]()
  private val stageGroup = mutable.HashMap[Int, String]()
  /** Jobs that ran with no job group set while tracing was on. */
  var ungroupedJobs = 0

  private def work(g: String) = groups.getOrElseUpdate(g, new GroupWork)

  def get(group: String): GroupWork = synchronized(groups.getOrElse(group, new GroupWork))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.GroupKey))).getOrElse("")
    if (g.isEmpty) ungroupedJobs += 1
    jobGroup(e.jobId) = g
    e.stageIds.foreach(s => stageGroup(s) = g)
    work(g).jobs += ((e.jobId, e.time.toDouble, Double.NaN))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    for (g <- jobGroup.get(e.jobId)) {
      val js = work(g).jobs
      val i = js.indexWhere(_._1 == e.jobId)
      if (i >= 0) js(i) = js(i).copy(_3 = e.time.toDouble)
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    for (g <- stageGroup.get(e.stageInfo.stageId)) work(g).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val w = work(g)
      w.tasks += 1
      w.inputBytes += m.inputMetrics.bytesRead
      w.inputRecords += m.inputMetrics.recordsRead
      w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      w.spillBytes += m.diskBytesSpilled
    }
  }
}

/** One traced call: `name` is the layer, `op` the operation it served.
  * Times are epoch ms with sub-ms resolution.
  */
final case class Span(id: Int, parent: Int, name: String, op: String, group: String,
                      start: Double, end: Double) {
  def ms: Double = end - start
}

/** Records spans around the benchmark's calls into the program. Each span
  * runs under a fresh job group, so the Spark jobs it launches become its
  * children. Spans are kept in memory and written out when the run ends.
  */
final class Tracer(sc: SparkContext) {
  private val jobs = new JobListener
  private val done = mutable.ArrayBuffer[Span]()
  private var stack: List[Int] = Nil
  private var nextId = 0
  private var on = false
  private val epoch0 = System.currentTimeMillis().toDouble
  private val nano0 = System.nanoTime()

  private def now: Double = epoch0 + (System.nanoTime() - nano0) / 1e6
  def spans: Seq[Span] = done.toSeq
  def ungroupedJobs: Int = { drain(); jobs.ungroupedJobs }

  def start(): Unit = if (!on) { sc.addSparkListener(jobs); on = true }

  def stop(): Unit = if (on) { drain(); sc.removeSparkListener(jobs); on = false }

  /** Wait until every posted listener event has been delivered. A call's
    * jobs have all posted their end before the call returns, so after this
    * its counters are final.
    */
  def drain(): Unit = BenchAccess.drainListenerBus(sc)

  def work(s: Span): GroupWork = jobs.get(s.group)

  def span[A](name: String, op: String)(f: => A): A =
    if (!on) f
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      // a UUID: Spark reuses the job group as the run id of broadcast exchanges
      val group = UUID.randomUUID.toString
      val prev = sc.getLocalProperty(Tracer.GroupKey)
      sc.setLocalProperty(Tracer.GroupKey, group)
      stack = id :: stack
      val t0 = now
      try f
      finally {
        val t1 = now
        stack = stack.tail
        sc.setLocalProperty(Tracer.GroupKey, prev)
        done += Span(id, parent, name, op, group, t0, t1)
      }
    }

  /** Span duration minus the part covered by its child spans and its own
    * jobs: the time the layer spent in its own code on the driver.
    */
  def selfMs(s: Span): Double = {
    val children = done.filter(_.parent == s.id).map(c => (c.start, c.end))
    s.ms - Stats.unionLength(children.toSeq ++ work(s).jobIntervals, s.start, s.end)
  }

  /** All spans with their jobs and counters, one JSON object per line. */
  def dump(path: java.nio.file.Path): Unit = {
    drain()
    val lines = done.sortBy(_.id).map { s =>
      val w = work(s)
      Json(mutable.LinkedHashMap(
        "id" -> s.id, "parent" -> s.parent, "name" -> s.name, "op" -> s.op,
        "start_ms" -> s.start, "end_ms" -> s.end, "self_ms" -> selfMs(s),
        "jobs" -> w.jobs.map(j => mutable.LinkedHashMap(
          "id" -> j._1, "start_ms" -> j._2, "end_ms" -> j._3)),
        "stages" -> w.stages, "tasks" -> w.tasks,
        "input_bytes" -> w.inputBytes, "input_records" -> w.inputRecords,
        "shuffle_write_bytes" -> w.shuffleWriteBytes, "spill_bytes" -> w.spillBytes))
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}

object Tracer {
  val GroupKey = "spark.jobGroup.id"
}
