package repro.perf

import java.nio.file.Paths

import org.apache.spark.sql.SparkSession

/** Entry point of the benchmark JVM; `run.py` builds and launches it.
  *
  * {{{
  * Main --workload investigate|hunt --seed N --seconds S --trace 0|1
  *      --master local[N] --shuffle-partitions P --work DIR
  *      [--sf X] [--plant-wrong qNN]
  * }}}
  *
  * Prints the run environment, the samples, any failures and the metrics,
  * then as its last line one JSON object with the keys `correct`,
  * `attempted`, `failed` and `metrics`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") == "1",
      sf = kv.getOrElse("sf", "0.004").toDouble,
      plantWrong = kv.get("plant-wrong"),
      work = Paths.get(need("work")).toAbsolutePath)

    val spark = SparkSession.builder
      .master(need("master"))
      .appName(s"aiqlbench-${o.workload}")
      .config("spark.sql.shuffle.partitions", need("shuffle-partitions"))
      // as the jobs' deployment (repro.jobs.JobEnv): joins broadcast only
      // where the engine asks for it
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", o.work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", o.work.resolve("warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      println(Json(Map(
        "env" -> Map(
          "workload" -> o.workload, "seed" -> o.seed, "seconds" -> o.seconds,
          "trace" -> o.trace, "sf" -> o.sf, "store_builds" -> Bench.Builds,
          "master" -> spark.sparkContext.master,
          "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
          "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
          "spark" -> spark.version,
          "jvm" -> System.getProperty("java.vm.version")))))
      println(new Bench(spark, o).run())
    } finally spark.stop()
  }
}
