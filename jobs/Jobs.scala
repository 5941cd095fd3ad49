package repro.jobs

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.Oracle
import repro.attack.{AttackDataGen, InvestigationQueries}
import repro.baseline.NaiveSqlBaseline
import repro.core._
import repro.events.EventStore

/** Shared helpers for the spark-submit entrypoints. */
object JobEnv {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  def sf(args: Array[String]): Double =
    args.headOption.map(_.toDouble)
      .getOrElse(sys.env.getOrElse("REPRO_SF", "2.0").toDouble)

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

/** T1: per-query execution time, AIQL engine vs equivalent SQL.
  * `spark-submit --class repro.jobs.Table1Job ... [sf]`
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobEnv.session("aiql-table1")
    val sf = JobEnv.sf(args)
    val dir = java.nio.file.Files.createTempDirectory("aiql-bench").toString
    val events = AttackDataGen.events(spark, sf)
    EventStore.write(events, s"$dir/store")
    EventStore.writeFlat(events, s"$dir/flat")
    val flat = EventStore.readFlat(spark, s"$dir/flat")
    val aiql = new Aiql(spark, StorePath(s"$dir/store"))
    val baseline = new NaiveSqlBaseline(spark, flat)

    // warm-up both paths once
    aiql.query(InvestigationQueries.byName("q01").aiql).collect()
    baseline.execute(InvestigationQueries.byName("q01").aiql).collect()

    println(f"${"query"}%-6s${"rows"}%8s${"aiql_ms"}%10s${"sql_ms"}%10s${"speedup"}%9s")
    var aiqlTotal = 0L; var sqlTotal = 0L
    for (q <- InvestigationQueries.all) {
      val (r1, tA) = JobEnv.timedRows(aiql.query(q.aiql))
      val (r2, tS) = JobEnv.timedRows(baseline.execute(q.aiql))
      require(r1 == r2, s"${q.name}: result mismatch")
      aiqlTotal += tA; sqlTotal += tS
      println(f"${q.name}%-6s${r1.length}%8d$tA%10d$tS%10d${tS.toDouble / tA}%9.1f")
    }
    println(f"${"total"}%-6s${""}%8s$aiqlTotal%10d$sqlTotal%10d${sqlTotal.toDouble / aiqlTotal}%9.1f")
    spark.stop()
  }
}

/** T2: query conciseness (constraints / words / chars), AIQL vs SQL. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    println(f"${"query"}%-6s${"aiql_c"}%8s${"sql_c"}%8s${"aiql_w"}%8s${"sql_w"}%8s${"aiql_ch"}%9s${"sql_ch"}%9s")
    var a = Conciseness.Metrics(0, 0, 0); var s = Conciseness.Metrics(0, 0, 0)
    for (q <- InvestigationQueries.all) {
      val parsed = Parser.parse(q.aiql)
      val am = Conciseness.ofAiql(q.aiql, parsed)
      val sm = Conciseness.ofSql(SqlSynthesizer.forQuery(parsed, SqlSynthesizer.Spark))
      a = Conciseness.Metrics(a.constraints + am.constraints, a.words + am.words, a.chars + am.chars)
      s = Conciseness.Metrics(s.constraints + sm.constraints, s.words + sm.words, s.chars + sm.chars)
      println(f"${q.name}%-6s${am.constraints}%8d${sm.constraints}%8d${am.words}%8d${sm.words}%8d${am.chars}%9d${sm.chars}%9d")
    }
    println(f"${"total"}%-6s${a.constraints}%8d${s.constraints}%8d${a.words}%8d${s.words}%8d${a.chars}%9d${s.chars}%9d")
    println(f"ratios: constraints ${s.constraints.toDouble / a.constraints}%.1fx  " +
      f"words ${s.words.toDouble / a.words}%.1fx  chars ${s.chars.toDouble / a.chars}%.1fx")
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
