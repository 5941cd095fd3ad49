package repro.jobs

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.Oracle
import repro.core._

/** Shared helpers for the spark-submit entrypoints. */
object JobEnv {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000)
  }

  /** Build and collect a query (building runs the engine's statistics jobs,
    * so it is timed too); its canonical rows and the wall time in ms.
    */
  def timedRows(df: => DataFrame): (Seq[Seq[String]], Long) = {
    val ((cols, rows), ms) = timed { val d = df; (d.columns.toSeq, d.collect().toSeq) }
    (Oracle.canon(rows, cols), ms)
  }
}

/** Ad-hoc runner: execute one AIQL query text (from a file) over a store.
  * `spark-submit --class repro.jobs.RunAiqlJob ... <store-path> <query-file>`
  */
object RunAiqlJob {
  def main(args: Array[String]): Unit = {
    require(args.length == 2, "usage: RunAiqlJob <store-path> <query-file>")
    val spark = JobEnv.session("aiql-run")
    val text = new String(java.nio.file.Files.readAllBytes(java.nio.file.Paths.get(args(1))))
    val df = new Aiql(spark, StorePath(args(0))).query(text)
    val (rows, ms) = JobEnv.timed(df.collect())
    println(df.columns.mkString("\t"))
    rows.take(100).foreach(r => println(r.mkString("\t")))
    println(s"[aiql] ${rows.length} rows in ${ms} ms")
    spark.stop()
  }
}
